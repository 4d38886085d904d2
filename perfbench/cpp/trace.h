// In-memory span recorder for the traced run (--trace 1). Every timed call
// in the benchmark's own files opens a span: name, start, end, parent, the
// lookup id it belongs to (0 when none) and how many items it covered.
// Per-name totals (count, items, total and self nanoseconds) are kept for
// every span; full records are kept up to a cap and written out at exit.
// With tracing off a Span costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  uint64_t count = 0;
  uint64_t items = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus time covered by child spans

  double NsPerItem() const {
    return items == 0 ? 0.0 : static_cast<double>(total_ns) / items;
  }
  double NsPerCall() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

class Tracer {
 public:
  Tracer(bool enabled, size_t keep_limit)
      : enabled_(enabled), keep_limit_(keep_limit) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Stable id for a span name.
  uint32_t Intern(const std::string& name);

  void Begin(uint32_t name, uint64_t lookup_id);
  void End(uint64_t items);

  /// Totals per span name (zero totals for a name never recorded).
  SpanTotals Totals(const std::string& name) const;
  /// Self time summed per layer (module) of the span names.
  std::map<std::string, int64_t> SelfNsByLayer() const;

  /// Writes kept spans as JSON lines: name, start/end ns, parent index,
  /// lookup id, items. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;
  size_t kept() const { return kept_.size(); }

 private:
  struct Record {
    uint32_t name = 0;
    int32_t parent = -1;
    uint64_t lookup_id = 0;
    uint64_t items = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Open {
    uint32_t name = 0;
    int32_t record = -1;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  bool enabled_;
  size_t keep_limit_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<SpanTotals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> kept_;
};

/// Scoped span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, uint32_t name, uint64_t lookup_id = 0)
      : tracer_(tracer), on_(tracer.enabled()) {
    if (on_) tracer_.Begin(name, lookup_id);
  }
  ~Span() {
    if (on_) tracer_.End(items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(uint64_t items) { items_ = items; }

 private:
  Tracer& tracer_;
  bool on_;
  uint64_t items_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
