// Measurement primitives of the end-to-end benchmark: latency samples,
// named metric output, and the span recorder of the traced run.
//
// Spans are recorded by the benchmark itself around its calls into each
// layer's public functions (nothing inside the engine is instrumented).
// Each span carries a name, start, end and parent; the engine's own EXPLAIN
// phases of a query are attached to the query's span as timed notes. All of
// it stays in memory and is written out when the run ends.
#ifndef XDB_BENCH_E2E_TRACE_H_
#define XDB_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

/// Microseconds elapsed since `start_ns`.
inline double SinceUs(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// Latency samples of one operation class, in microseconds.
class Samples {
 public:
  void Add(double us) { us_.push_back(us); }
  size_t size() const { return us_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> us_;
};

struct MetricOut {
  std::string name;
  double value = 0;
  std::string unit;
  /// False for a figure that is printed but left out of the JSON result.
  bool in_result = true;
};

class Tracer {
 public:
  /// Spans are recorded only while enabled; Begin() returns -1 otherwise.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span.
  int32_t Begin(const char* name);
  void End(int32_t id);
  /// Attaches an engine-reported timed phase (EXPLAIN) to span `id`. It
  /// counts as a child of the span when self times are computed.
  void AddPhase(int32_t id, const std::string& name, uint64_t us);

  struct Totals {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;  // total minus time covered by children and phases
  };
  /// Per span name (phases as "phase.<name>"): count, total and self time.
  std::map<std::string, Totals> Summarize() const;

  /// One JSON object per line: spans, then phases.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;
  };
  struct Phase {
    int32_t span;
    std::string name;
    uint64_t us;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<Phase> phases_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace bench_e2e

#endif  // XDB_BENCH_E2E_TRACE_H_
