#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench.h"

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t run_id) {
  spans_.push_back({name, NowNs(), 0, parent, run_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int64_t Tracer::Add(const std::string& name, uint64_t start_ns,
                    uint64_t end_ns, int64_t parent, uint64_t run_id) {
  spans_.push_back({name, start_ns, end_ns, parent, run_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<uint64_t> Tracer::SelfNanos() const {
  // Children's intervals per parent, clipped to the parent; self time is
  // the parent's duration minus the union of those intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

std::map<uint64_t, uint64_t> Tracer::SelfNanosByRun(
    const std::string& name) const {
  const std::vector<uint64_t> self = SelfNanos();
  std::map<uint64_t, uint64_t> by_run;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) by_run[spans_[i].run_id] += self[i];
  }
  return by_run;
}

ceaff::Status Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ceaff::Status::IOError("cannot write " + path);
  const std::vector<uint64_t> self = SelfNanos();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"self_ns\":%llu,\"parent\":%lld,\"run_id\":%llu}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(self[i]),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.run_id));
  }
  if (std::fclose(f) != 0) {
    return ceaff::Status::IOError("cannot write " + path);
  }
  return ceaff::Status::OK();
}

}  // namespace perfbench
