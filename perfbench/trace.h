#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recorder and summariser for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into an
// engine layer; nothing inside the engine is instrumented. A span has a
// name, a start and end (steady clock), the span that caused it and the
// operation it belongs to. Spans stay in memory until the run ends and are
// then summarised (and optionally written out as TSV).
//
// Thread CPU time costs a system call (~0.3 us), so it is read only on a
// sample of operations (every kCpuSampleEvery-th op); the summary reports a
// layer's CPU time as a share of its wall time over those sampled spans.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Operation id reserved for spans recorded during set-up.
inline constexpr uint32_t kSetupOp = 0;

struct Span {
  uint32_t name = 0;  ///< Index into SpanRecorder::names().
  uint32_t parent = kNoParent;
  uint32_t op = kSetupOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = -1;  ///< Thread CPU time inside the span; -1 unsampled.

  static constexpr uint32_t kNoParent = ~static_cast<uint32_t>(0);
};

int64_t NowNs();

class SpanRecorder {
 public:
  static constexpr uint32_t kCpuSampleEvery = 8;

  SpanRecorder();

  /// Starts attributing new spans to operation `op` (kSetupOp for set-up).
  void BeginOp(uint32_t op);

  /// Opens a span as a child of the innermost open span; returns its index.
  uint32_t Open(const char* name);
  /// Closes span `idx` (must be the innermost open span).
  void Close(uint32_t idx);
  /// Renames a span after the fact (e.g. a plan-cache call that turned out
  /// to be a miss is attributed to the compiler).
  void Rename(uint32_t idx, const char* name);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::string& name(const Span& s) const { return names_[s.name]; }

  /// Writes the spans of the first operations, about `max_spans` of them
  /// (whole operations only; an oltp run records millions), as TSV lines:
  /// op, id, parent, name, start, end, cpu (ns; start relative to the
  /// first span).
  bool WriteTsv(const std::string& path, size_t max_spans) const;

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name)
        : rec_(rec), idx_(rec ? rec->Open(name) : 0) {}
    ~Scope() {
      if (rec_) rec_->Close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t index() const { return idx_; }

   private:
    SpanRecorder* rec_;
    uint32_t idx_;
  };

 private:
  uint32_t NameId(const char* name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<const char*> name_ptrs_;  ///< Parallel to names_.
  std::vector<uint32_t> open_;          ///< Stack of open span indices.
  std::vector<int64_t> open_cpu_;       ///< CPU clock at open, per open span.
  uint32_t op_ = kSetupOp;
  bool sample_cpu_ = false;
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  std::string name;
  uint64_t calls = 0;
  double wall_ns = 0;       ///< Inclusive.
  double self_ns = 0;       ///< Inclusive minus child spans.
  double sampled_self_ns = 0;
  double sampled_cpu_ns = 0;  ///< CPU self time over the sampled spans.
};

/// Aggregates spans by name. With `ops_only`, set-up spans are skipped.
/// Root spans (one per operation) are included under their own names.
std::vector<LayerTotals> Summarise(const SpanRecorder& rec, bool ops_only);

/// Looks a layer up by name; nullptr when it never ran.
const LayerTotals* FindLayer(const std::vector<LayerTotals>& layers,
                             const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
