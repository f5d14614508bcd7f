#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  struct rusage self {}, children {};
  if (::getrusage(RUSAGE_SELF, &self) != 0 ||
      ::getrusage(RUSAGE_CHILDREN, &children) != 0) {
    return 0.0;
  }
  // KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double MedianSelfSeconds(const Tracer& tracer, const std::string& name) {
  std::vector<double> per_run;
  for (const auto& [run, ns] : tracer.SelfNanosByRun(name)) {
    per_run.push_back(NsToS(ns));
  }
  return Median(per_run);
}

ceaff::Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return ceaff::Status::IOError("cannot remove " + dir);
  std::filesystem::create_directories(dir, ec);
  if (ec) return ceaff::Status::IOError("cannot create " + dir);
  return ceaff::Status::OK();
}

}  // namespace perfbench
