#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace muxlink::common {

namespace {

std::size_t default_num_threads() {
  if (const char* env = std::getenv("MUXLINK_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Plain task-queue pool. parallel_for submits "drainer" tasks that pull
// chunk indices from a shared atomic counter; which thread runs which chunk
// is scheduling-dependent, but chunk *identity* never is.
class Pool {
 public:
  explicit Pool(std::size_t threads) : size_(threads < 1 ? 1 : threads) {
    for (std::size_t i = 0; i + 1 < size_; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  std::size_t size() const noexcept { return size_; }

  void enqueue(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(m_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker_main() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::size_t size_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
};

std::mutex g_pool_mutex;
std::unique_ptr<Pool> g_pool;          // guarded by g_pool_mutex
std::size_t g_requested_threads = 0;   // 0 = default

Pool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    const std::size_t n = g_requested_threads > 0 ? g_requested_threads : default_num_threads();
    g_pool = std::make_unique<Pool>(n);
  }
  return *g_pool;
}

// Shared state of one parallel_for invocation. Helpers hold a shared_ptr so
// a helper dequeued after the caller closed the loop still finds live state;
// it then returns without touching `fn`.
struct LoopState {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex m;
  std::condition_variable idle_cv;
  std::exception_ptr error;  // first exception; guarded by m
  bool closed = false;       // no helper may join any more; guarded by m
  std::size_t active = 0;    // helpers inside drain(); guarded by m
};

void drain(LoopState& st, std::size_t n, std::size_t chunk, std::size_t nchunks,
           const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  for (;;) {
    const std::size_t c = st.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= nchunks || st.failed.load(std::memory_order_relaxed)) break;
    const std::size_t begin = c * chunk;
    const std::size_t end = begin + chunk < n ? begin + chunk : n;
    try {
      fn(begin, end, c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(st.m);
      if (!st.error) st.error = std::current_exception();
      st.failed.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace

std::size_t num_threads() { return pool().size(); }

void set_num_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_requested_threads = n;
  g_pool.reset();  // rebuilt lazily at the requested size
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t nchunks = num_chunks(n, chunk);

  Pool& p = pool();
  if (p.size() <= 1 || nchunks <= 1) {
    MUXLINK_COUNTER_ADD("pool.regions_inlined", 1);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t begin = c * chunk;
      fn(begin, begin + chunk < n ? begin + chunk : n, c);
    }
    return;
  }
  MUXLINK_COUNTER_ADD("pool.regions_parallel", 1);

  auto st = std::make_shared<LoopState>();
  const std::size_t helpers = std::min(p.size() - 1, nchunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    p.enqueue([st, n, chunk, nchunks, &fn] {
      {
        std::lock_guard<std::mutex> lock(st->m);
        if (st->closed) return;
        ++st->active;
      }
      drain(*st, n, chunk, nchunks, fn);
      std::lock_guard<std::mutex> lock(st->m);
      if (--st->active == 0) st->idle_cv.notify_all();
    });
  }

  // The caller can run every chunk alone, so it never depends on a queued
  // helper. Once the chunks are claimed it closes the loop and waits only for
  // helpers that joined: they are running chunks, and any loop they nest obeys
  // the same rule, so no nesting depth can deadlock. Helpers dequeued later
  // find the loop closed, which keeps `fn` (captured by reference) alive for
  // as long as anyone can call it.
  drain(*st, n, chunk, nchunks, fn);
  std::unique_lock<std::mutex> lock(st->m);
  st->closed = true;
  st->idle_cv.wait(lock, [&] { return st->active == 0; });
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace muxlink::common
