// Workload `align`: the batch path users wait for. CeaffPipeline::Run with
// index export on the DBP15K_ZH_EN generator config (scale 2, 1,400 test
// pairs), loaded from the dataset files, using the generator's own word
// store and the `ceaff align` CLI defaults.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "ceaff/core/pipeline.h"
#include "ceaff/data/synthetic.h"
#include "ceaff/kg/io.h"
#include "pipeline_options.h"

namespace perfbench {

namespace {

/// Traced repetition: the same stages Run() executes, called one by one so
/// each layer gets its own span. Stage spans come from the gaps between
/// stage_callback timestamps; the decision span is carved out of the
/// RunOnFeatures span by the library's own `seconds_decision`.
ceaff::StatusOr<ceaff::core::CeaffResult> TracedAlign(
    const ceaff::kg::KgPair& pair, const ceaff::text::WordEmbeddingStore& store,
    ceaff::core::CeaffOptions options, Tracer* tracer, uint64_t rep) {
  ScopedSpan root(tracer, "align", -1, rep);
  const int64_t features_span =
      tracer->Begin("pipeline.features", root.id(), rep);
  uint64_t last = NowNs();
  options.stage_callback = [&](const std::string& stage, bool) {
    const uint64_t now = NowNs();
    const char* name = stage == "structural" ? "embed.gcn"
                       : stage == "semantic" ? "text.semantic"
                       : stage == "string"   ? "la.string"
                                             : nullptr;
    if (name != nullptr) tracer->Add(name, last, now, features_span, rep);
    last = now;
  };
  ceaff::core::CeaffPipeline pipe(&pair, &store, options);
  auto features = pipe.GenerateFeatures();
  tracer->End(features_span);
  if (!features.ok()) return features.status();

  const int64_t fuse_span = tracer->Begin("fusion.fuse", root.id(), rep);
  auto result = pipe.RunOnFeatures(*features);
  tracer->End(fuse_span);
  if (!result.ok()) return result.status();
  // RunOnFeatures ends with the decision stage followed by cheap scoring;
  // place the reported decision time at the end of the fuse span.
  const uint64_t fuse_start = tracer->spans()[fuse_span].start_ns;
  const uint64_t fuse_end = tracer->spans()[fuse_span].end_ns;
  const uint64_t decide_ns = std::min<uint64_t>(
      std::llround(result->seconds_decision * 1e9), fuse_end - fuse_start);
  tracer->Add("matching.decide", fuse_end - decide_ns, fuse_end, fuse_span,
              rep);

  ScopedSpan export_span(tracer, "serve.export", root.id(), rep);
  ceaff::Status st = pipe.ExportIndex(*features, *result);
  if (!st.ok()) return st;
  return result;
}

/// What one repetition reports back from its child process.
struct RepOutcome {
  ceaff::Status status;
  double seconds = 0.0;
  double hits1 = 0.0;
};

/// Runs one repetition in a forked child, so that every repetition starts
/// from the process state a fresh `ceaff align` starts from. In one
/// long-lived process the first alignment is about 1.6x slower than the
/// ones after it: glibc raises its mmap threshold after the first large
/// frees, and later repetitions reuse heap pages instead of faulting in
/// fresh ones. A CLI user pays that cost on every run, so every repetition
/// pays it here. The child reports its time, its hits@1 and (traced) its
/// spans through a pipe; the steady clock is shared across processes.
RepOutcome ForkedAlign(const ceaff::data::SyntheticBenchmark& bench,
                       const ceaff::core::CeaffOptions& options,
                       Tracer* tracer, uint64_t rep) {
  int fds[2];
  if (::pipe(fds) != 0) return {ceaff::Status::IOError("pipe failed")};
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {ceaff::Status::Internal("fork failed")};
  }
  if (pid == 0) {
    ::close(fds[0]);
    Tracer child_tracer;
    Tracer* t = tracer != nullptr ? &child_tracer : nullptr;
    const uint64_t t0 = NowNs();
    auto result =
        t != nullptr
            ? TracedAlign(bench.pair, bench.store, options, t, rep)
            : ceaff::core::CeaffPipeline(&bench.pair, &bench.store, options)
                  .Run();
    const double seconds = NsToS(NowNs() - t0);
    char line[256];
    std::string out;
    if (result.ok()) {
      std::snprintf(line, sizeof(line), "ok %.9f %.17g\n", seconds,
                    result->accuracy);
      out = line;
    } else {
      std::string message = result.status().ToString();
      std::replace(message.begin(), message.end(), '\n', ' ');
      out = "err " + message + "\n";
    }
    for (const Span& span : child_tracer.spans()) {
      std::snprintf(line, sizeof(line), "%s %llu %llu %lld %llu\n",
                    span.name.c_str(),
                    static_cast<unsigned long long>(span.start_ns),
                    static_cast<unsigned long long>(span.end_ns),
                    static_cast<long long>(span.parent),
                    static_cast<unsigned long long>(span.run_id));
      out += line;
    }
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      done += static_cast<size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string in;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      in.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }

  std::istringstream lines(in);
  std::string head;
  std::getline(lines, head);
  RepOutcome outcome;
  if (head.rfind("err ", 0) == 0) {
    outcome.status = ceaff::Status::Internal(head.substr(4));
    return outcome;
  }
  if (head.rfind("ok ", 0) != 0 || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    outcome.status = ceaff::Status::Internal("align child exited abnormally");
    return outcome;
  }
  std::istringstream(head.substr(3)) >> outcome.seconds >> outcome.hits1;
  const int64_t base =
      tracer != nullptr ? static_cast<int64_t>(tracer->spans().size()) : 0;
  std::string name;
  uint64_t start = 0, end = 0, run_id = 0;
  int64_t parent = 0;
  while (tracer != nullptr &&
         lines >> name >> start >> end >> parent >> run_id) {
    tracer->Add(name, start, end, parent < 0 ? -1 : base + parent, run_id);
  }
  return outcome;
}

}  // namespace

ceaff::Status RunAlign(const RunConfig& config, Tracer* tracer,
                       Report* report) {
  const double scale = config.smoke ? 0.1 : 2.0;
  CEAFF_ASSIGN_OR_RETURN(
      ceaff::data::SyntheticKgOptions kg_options,
      ceaff::data::BenchmarkConfigByName("DBP15K_ZH_EN", scale, config.seed));

  // Set-up: what a user does before `ceaff align --data`: generate the
  // dataset (`ceaff generate`), write it, and load it back.
  const std::string data_dir = config.work_dir + "/data";
  std::vector<double> setup_s;
  ceaff::data::SyntheticBenchmark bench;
  for (size_t r = 0; MoreSetups(setup_s); ++r) {
    ScopedSpan span(tracer, "setup", -1, r);
    const uint64_t t0 = NowNs();
    CEAFF_ASSIGN_OR_RETURN(bench, ceaff::data::GenerateBenchmark(kg_options));
    CEAFF_RETURN_IF_ERROR(ceaff::kg::SaveKgPair(bench.pair, data_dir));
    ceaff::kg::KgPair loaded;
    CEAFF_RETURN_IF_ERROR(ceaff::kg::LoadKgPair(data_dir, &loaded));
    bench.pair = std::move(loaded);
    setup_s.push_back(NsToS(NowNs() - t0));
  }

  ceaff::core::CeaffOptions options = CliAlignOptions(config.threads);
  options.export_index_path = config.work_dir + "/align.idx";

  // Measured phase: whole alignments, each in a fresh child process, at
  // least three, until the budget is spent. Every repetition must
  // reproduce the first one's hits@1.
  std::vector<double> align_s;
  double hits1 = -1.0;
  const uint64_t start = NowNs();
  for (uint64_t rep = 0;
       align_s.size() < 3 || NsToS(NowNs() - start) < config.seconds; ++rep) {
    const RepOutcome outcome = ForkedAlign(bench, options, tracer, rep);
    report->Op(outcome.status.ok());
    if (!outcome.status.ok()) {
      report->Check(false, "align failed: " + outcome.status.ToString());
      break;
    }
    align_s.push_back(outcome.seconds);
    std::printf("rep %llu align_s %.4f hits1 %.6f\n",
                static_cast<unsigned long long>(rep), outcome.seconds,
                outcome.hits1);
    if (hits1 < 0) hits1 = outcome.hits1;
    report->Check(outcome.hits1 == hits1,
                  "align hits1 differs between repetitions of one seed");
  }

  // The operation is one whole alignment.
  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("latency_p50_ms", 1e3 * Median(align_s), "ms");
  report->E2e("quality", hits1, "ratio");
  if (tracer == nullptr) return ceaff::Status::OK();

  // Per-layer: median over repetitions of each layer's self time.
  for (const char* span : {"embed.gcn", "text.semantic", "la.string",
                           "fusion.fuse", "matching.decide", "serve.export"}) {
    report->Layer(std::string(span) + "_s", MedianSelfSeconds(*tracer, span),
                  "s");
  }
  return ceaff::Status::OK();
}

}  // namespace perfbench
