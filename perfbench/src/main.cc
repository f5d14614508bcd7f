// ceaff_perfbench: one pass of one benchmark workload.
//
//   ceaff_perfbench --workload align|topk_local|topk_sharded|delta_ingest
//                   --seed N --seconds S --work_dir DIR
//                   [--trace 0|1] [--trace_out FILE] [--smoke]
//
// Prints one "metric <name> <value> <unit>" line per metric, then, as the
// last line, a JSON object with the pass's end-to-end metrics, its
// per-layer metrics (traced passes only), the attempted/failed operation
// counts and the failed correctness checks. Exit code 0 only when the pass
// ran and every check held. `perfbench/run.py` builds this binary and
// turns its passes into the benchmark's result line.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "ceaff/common/logging.h"

namespace perfbench {
namespace {

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

void PrintMetrics(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %s %.6g %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  char buf[128];
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "ceaff_perfbench: %s\nusage: ceaff_perfbench --workload "
               "align|topk_local|topk_sharded|delta_ingest --seed N "
               "--seconds S --work_dir DIR [--trace 0|1] [--trace_out FILE] "
               "[--smoke]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::string(v) == "1";
    } else if (arg == "--trace_out") {
      trace_out = v;
    } else if (arg == "--work_dir") {
      config.work_dir = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (config.work_dir.empty()) return Usage("--work_dir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be > 0");
  config.threads = std::min<size_t>(4, UsableCpus());

  ceaff::Status (*run)(const RunConfig&, Tracer*, Report*) = nullptr;
  if (config.workload == "align") {
    run = RunAlign;
  } else if (config.workload == "topk_local") {
    run = RunTopkLocal;
  } else if (config.workload == "topk_sharded") {
    run = RunTopkSharded;
  } else if (config.workload == "delta_ingest") {
    run = RunDeltaIngest;
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  // Library progress logs (exports, publishes) would swamp the output.
  ceaff::SetLogLevel(ceaff::LogLevel::kWarning);
  ceaff::Status st = ResetDir(config.work_dir);
  Tracer tracer;
  Report report;
  if (st.ok()) st = run(config, trace ? &tracer : nullptr, &report);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "ceaff_perfbench: %s failed: %s\n",
                 config.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  if (trace && !trace_out.empty()) {
    st = tracer.WriteJsonl(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "ceaff_perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf("workload %s seed %llu threads %zu trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.threads,
              trace ? 1 : 0);
  PrintMetrics("metric", report.end_to_end);
  PrintMetrics("layer", report.per_layer);
  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::printf("operations %llu failed %llu error_rate %.6g\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), error_rate);
  std::string checks = "[";
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
    if (checks.size() > 1) checks += ", ";
    checks += '"';
    checks += JsonEscape(failure);
    checks += '"';
  }
  checks += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"check_failures\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
      report.check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), checks.c_str(),
      MetricsJson(report.end_to_end).c_str(),
      MetricsJson(report.per_layer).c_str());
  std::fflush(stdout);
  return report.check_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
