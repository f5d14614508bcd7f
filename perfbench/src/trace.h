// In-memory span recorder for traced passes. Spans are recorded by the
// benchmark itself around its calls into the library's public functions;
// they are kept in memory and written out once, when the pass ends.
#ifndef CEAFF_PERFBENCH_TRACE_H_
#define CEAFF_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ceaff/common/status.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the span that caused this one, -1 for a root.
  int64_t parent = -1;
  /// Spans of one operation (an align repetition, a query, a delta cycle)
  /// share this id.
  uint64_t run_id = 0;
};

class Tracer {
 public:
  /// Opens a span now; close it with End().
  int64_t Begin(const std::string& name, int64_t parent, uint64_t run_id);
  void End(int64_t span);
  /// Records a span whose bounds were measured elsewhere (for example a
  /// stage duration the library reports).
  int64_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t run_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it its children cover.
  std::vector<uint64_t> SelfNanos() const;

  /// Self time of the spans named `name`, summed per run id.
  std::map<uint64_t, uint64_t> SelfNanosByRun(const std::string& name) const;

  /// One JSON object per line: name, start_ns, end_ns, self_ns, parent,
  /// run_id.
  ceaff::Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             uint64_t run_id = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, run_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // CEAFF_PERFBENCH_TRACE_H_
