// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// module's public functions (nothing inside the program is instrumented).
// Each span carries a name, start, end, the span that caused it and the job
// it belongs to; records stay in memory until the run ends and are written
// out as JSON Lines. A disabled tracer reads no clock and records nothing,
// so the same code runs traced and untraced.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  std::int64_t id = -1;
  std::int64_t parent = -1;  // -1 = root
  std::int64_t job = -1;
  std::int64_t start_ns = 0;  // since the tracer was created
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  std::int64_t next_id() noexcept { return next_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRecord& r) {
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(r);
  }
  // Call only once every recording thread has been joined.
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::int64_t> next_{0};
  std::mutex m_;
  std::vector<SpanRecord> spans_;
};

// Records [construction, destruction) as one span. id() is -1 on a disabled
// tracer; children may pass it as their parent either way.
class Span {
 public:
  Span(Tracer& t, const char* name, std::int64_t parent, std::int64_t job)
      : t_(t), name_(name), parent_(parent), job_(job) {
    if (t_.enabled()) {
      id_ = t_.next_id();
      start_ = t_.now_ns();
    }
  }
  ~Span() {
    if (id_ >= 0) t_.record({name_, id_, parent_, job_, start_, t_.now_ns()});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& t_;
  const char* name_;
  std::int64_t parent_;
  std::int64_t job_;
  std::int64_t id_ = -1;
  std::int64_t start_ = 0;
};

// Derived views over a finished trace.
class TraceIndex {
 public:
  explicit TraceIndex(const std::vector<SpanRecord>& spans);

  // Duration minus the part of the span's interval its children cover
  // (children may overlap when they ran on pool threads).
  std::int64_t self_ns(std::size_t i) const;
  std::int64_t children_ns(std::size_t i) const;

  // Per-job total duration of every span named `name`, in ms, for each job
  // that has one; jobs are taken from roots named `root`.
  std::vector<double> per_job_ms(const std::string& root, const std::string& name) const;
  // Per-job mean duration of one span named `name`, in microseconds.
  std::vector<double> per_job_mean_us(const std::string& root, const std::string& name) const;
  // Indices of the roots named `name`.
  std::vector<std::size_t> roots(const std::string& name) const;

  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> totals_by_name() const;

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::vector<std::size_t> spans_of_job(std::int64_t job, const std::string& name) const;

  const std::vector<SpanRecord>& spans_;
  std::vector<std::vector<std::size_t>> children_;
};

// One JSON object per span: name, id, parent, job, start_ns, end_ns.
void write_spans_jsonl(const std::vector<SpanRecord>& spans, const std::filesystem::path& path);

}  // namespace perfbench
