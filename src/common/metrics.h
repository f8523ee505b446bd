// Structured observability for the MuxLink pipeline: a process-wide
// MetricsRegistry (counters, gauges, histogram timers) and RAII trace spans
// that aggregate into a per-stage tree. Everything here OBSERVES — nothing
// feeds back into the computation — so instrumentation can never violate the
// bit-identical-results-at-any-thread-count contract (DESIGN.md §5/§7).
//
// Hot-path cost model:
//   * Disabled (MUXLINK_METRICS=0, set_metrics_enabled(false), or a
//     -DMUXLINK_METRICS_DISABLED build): every macro is one predicted
//     branch on a cached atomic bool (or nothing at all when compiled out).
//   * Enabled: counters/histograms update a per-thread cell — found through
//     a per-site `static thread_local` pointer after the first call — with
//     plain relaxed loads/stores (single-writer cells, no RMW, no locks).
//     Registration of a new (metric, thread) cell takes a mutex once.
//
// Determinism of the merge: snapshot() merges shards per metric in shard
// registration order and reports metrics sorted by name. Counter and gauge
// totals are integer/last-write values, so they are identical for any thread
// count (except the thread pool's own `pool.*` counters, which count
// scheduling); histogram value-sums are floating-point and exact whenever the
// recorded values are (the unit tests exercise exactly that).
//
// Snapshots must be taken from outside parallel regions (after a
// parallel_for returned, its writes are visible to the caller).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace muxlink::common {

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

// True unless MUXLINK_METRICS is set to 0/false/off (first call caches the
// environment) or set_metrics_enabled(false) was called.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool enabled) noexcept;

// ---------------------------------------------------------------------------
// Metric cells (single-writer per thread; readers use relaxed atomics)
// ---------------------------------------------------------------------------

struct CounterCell {
  std::atomic<std::int64_t> value{0};

  void add(std::int64_t delta) noexcept {
    // Single-writer: plain load+store (no lock-prefixed RMW on the hot path).
    value.store(value.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
};

struct GaugeCell {
  std::atomic<double> value{0.0};
  std::atomic<std::uint64_t> epoch{0};  // global write ordinal; merge keeps the newest
};

inline constexpr int kHistogramBuckets = 48;

// count/sum/min/max plus log2 buckets: bucket i counts values in
// [2^(i-24), 2^(i-23)) seconds-ish units — wide enough for ns..hours.
struct HistogramCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};
  std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};

  void record(double v) noexcept;
};

// ---------------------------------------------------------------------------
// Metric handles (stable for the registry's lifetime; cells are zeroed, not
// freed, by MetricsRegistry::reset, so cached pointers never dangle)
// ---------------------------------------------------------------------------

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }
  // This thread's cell (registered on first use).
  CounterCell& cell();
  void add(std::int64_t delta = 1) { cell().add(delta); }

 private:
  friend class MetricsRegistry;
  std::string name_;
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }
  GaugeCell& cell();
  void set(double v);

 private:
  friend class MetricsRegistry;
  std::string name_;
};

class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }
  HistogramCell& cell();
  void record(double v) { cell().record(v); }

 private:
  friend class MetricsRegistry;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  double mean() const noexcept { return count ? sum / static_cast<double>(count) : 0.0; }
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

// Aggregated node of the span tree: one node per distinct (parent-path,
// name), merged across threads. Spans opened on a pool worker root at that
// worker's current stack (empty outside nested spans), so hot-loop spans
// aggregate under their own top-level entry rather than fanning out per
// thread.
struct SpanNode {
  std::string name;
  std::uint64_t count = 0;      // completed invocations
  double wall_seconds = 0.0;    // summed wall time
  double cpu_seconds = 0.0;     // summed per-thread CPU time
  std::uint64_t peak_rss_bytes = 0;  // max RSS sampled at span exits
  std::vector<SpanNode> children;    // sorted by name in snapshots
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Returns the process-wide handle for `name` (created on first use; the
  // reference stays valid for the program's lifetime).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // One-shot conveniences (registry lookup per call — fine off hot paths).
  void add(std::string_view counter_name, std::int64_t delta = 1);
  void set(std::string_view gauge_name, double value);
  void record(std::string_view histogram_name, double value);

  // Deterministically merged view of all shards (see file header).
  MetricsSnapshot snapshot() const;

  // Merged span tree; children sorted by name, roots under a synthetic
  // root node named "".
  SpanNode trace_tree() const;

  // Zeroes every cell and clears the span tree. Metric handles and cached
  // cell pointers stay valid. Must not race live instrumentation (tests
  // call it between cases).
  void reset();

 private:
  MetricsRegistry() = default;
};

// RAII span: records wall time, thread-CPU time, one invocation, and (on
// top-level exits) a peak-RSS sample into the calling thread's span tree.
// No-op while metrics are disabled; a span that *starts* disabled stays
// no-op even if metrics are enabled before it closes (and vice versa).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void* node_ = nullptr;  // opaque per-thread tree node; null when disabled
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
};

// Current peak resident set size of the process in bytes (0 if unknown).
std::uint64_t peak_rss_bytes() noexcept;

}  // namespace muxlink::common

// ---------------------------------------------------------------------------
// Instrumentation macros. `name` must be a string literal (it is interned on
// first use per call site). A -DMUXLINK_METRICS_DISABLED build compiles every
// macro to nothing.
// ---------------------------------------------------------------------------

#ifdef MUXLINK_METRICS_DISABLED

#define MUXLINK_COUNTER_ADD(name, delta) do {} while (0)
#define MUXLINK_GAUGE_SET(name, value) do {} while (0)
#define MUXLINK_HISTOGRAM_RECORD(name, value) do {} while (0)
#define MUXLINK_TRACE(name) do {} while (0)

#else

#define MUXLINK_COUNTER_ADD(name, delta)                                              \
  do {                                                                                \
    if (::muxlink::common::metrics_enabled()) {                                       \
      static thread_local ::muxlink::common::CounterCell* muxlink_cell_ =             \
          &::muxlink::common::MetricsRegistry::instance().counter(name).cell();       \
      muxlink_cell_->add(delta);                                                      \
    }                                                                                 \
  } while (0)

#define MUXLINK_GAUGE_SET(name, value)                                                \
  do {                                                                                \
    if (::muxlink::common::metrics_enabled()) {                                       \
      ::muxlink::common::MetricsRegistry::instance().gauge(name).set(value);          \
    }                                                                                 \
  } while (0)

#define MUXLINK_HISTOGRAM_RECORD(name, value)                                         \
  do {                                                                                \
    if (::muxlink::common::metrics_enabled()) {                                       \
      static thread_local ::muxlink::common::HistogramCell* muxlink_cell_ =           \
          &::muxlink::common::MetricsRegistry::instance().histogram(name).cell();     \
      muxlink_cell_->record(value);                                                   \
    }                                                                                 \
  } while (0)

#define MUXLINK_TRACE_CONCAT2(a, b) a##b
#define MUXLINK_TRACE_CONCAT(a, b) MUXLINK_TRACE_CONCAT2(a, b)
#define MUXLINK_TRACE(name) \
  ::muxlink::common::TraceSpan MUXLINK_TRACE_CONCAT(muxlink_span_, __LINE__)(name)

#endif  // MUXLINK_METRICS_DISABLED
