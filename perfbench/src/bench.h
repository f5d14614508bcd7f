// Shared types of the end-to-end benchmark: the run configuration, the
// per-pass report every workload fills, and small measurement helpers.
#ifndef CEAFF_PERFBENCH_BENCH_H_
#define CEAFF_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ceaff/common/status.h"
#include "trace.h"

namespace perfbench {

/// Set-up runs at least kSetupReps times per pass, and a cheap set-up
/// repeats until kSetupMinSeconds of it is measured (at most kSetupMaxReps
/// times); `setup_s` is the median repetition. The host can run a process
/// 50% slower for a fraction of a second (seen on a shared 4-vCPU VM), so
/// a cheap set-up is sampled over seconds, not over one such episode.
inline constexpr size_t kSetupReps = 3;
inline constexpr size_t kSetupMaxReps = 400;
inline constexpr double kSetupMinSeconds = 2.0;

/// Whether another set-up repetition is due after those in `setup_s`.
inline bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kSetupReps ||
         (total < kSetupMinSeconds && setup_s.size() < kSetupMaxReps);
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Tiny inputs (the benchmark's own smoke test).
  bool smoke = false;
  /// min(4, nproc): kernel, service and repair threads alike.
  size_t threads = 1;
  /// Scratch directory for artifacts (index files, journals, states).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one pass of a workload measured. End-to-end metrics come from every
/// pass; per-layer metrics are only filled when the pass is traced.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks (empty = correct).
  std::vector<std::string> check_failures;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Counts one operation into `attempted` / `failed`.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set size of the largest process of the run so far (this
/// one, or a child it started and reaped: align repetitions, shard
/// workers), in MiB.
double PeakRssMb();

/// Median over run ids of the summed self time of the spans named `name`,
/// in seconds.
double MedianSelfSeconds(const Tracer& tracer, const std::string& name);

/// Empties (or creates) a directory.
ceaff::Status ResetDir(const std::string& dir);

// One entry point per workload. Each repeats its set-up (timed into
// `setup_s`, see MoreSetups), runs the measured phase for
// `config.seconds`, then its correctness checks outside the timed phase.
// `tracer` is null for an untraced pass.
ceaff::Status RunAlign(const RunConfig& config, Tracer* tracer,
                       Report* report);
ceaff::Status RunTopkLocal(const RunConfig& config, Tracer* tracer,
                           Report* report);
ceaff::Status RunTopkSharded(const RunConfig& config, Tracer* tracer,
                             Report* report);
ceaff::Status RunDeltaIngest(const RunConfig& config, Tracer* tracer,
                             Report* report);

}  // namespace perfbench

#endif  // CEAFF_PERFBENCH_BENCH_H_
