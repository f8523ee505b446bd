// Tests for the common thread pool: full index coverage, deterministic
// chunking, exception propagation, nested parallel_for (no deadlock, and the
// pool still engaged), a caller that never waits on queued helpers, and a
// many-task stress loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace muxlink::common {
namespace {

TEST(ThreadPool, SetNumThreadsIsReflected) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(0);  // restore default
  EXPECT_GE(num_threads(), 1u);
}

TEST(ThreadPool, NumChunksFormula) {
  EXPECT_EQ(num_chunks(0, 4), 0u);
  EXPECT_EQ(num_chunks(1, 4), 1u);
  EXPECT_EQ(num_chunks(4, 4), 1u);
  EXPECT_EQ(num_chunks(5, 4), 2u);
  EXPECT_EQ(num_chunks(100, 7), 15u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for(n, 7, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
  set_num_threads(0);
}

TEST(ThreadPool, ChunkingIsIndependentOfThreadCount) {
  // The (begin, end, chunk) triples must be a function of (n, chunk) only.
  auto collect = [](std::size_t threads) {
    set_num_threads(threads);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(num_chunks(103, 10));
    parallel_for(103, 10, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
      ranges[chunk] = {begin, end};
    });
    return ranges;
  };
  const auto one = collect(1);
  const auto two = collect(2);
  const auto eight = collect(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.front(), (std::pair<std::size_t, std::size_t>{0, 10}));
  EXPECT_EQ(one.back(), (std::pair<std::size_t, std::size_t>{100, 103}));
  set_num_threads(0);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  set_num_threads(4);
  EXPECT_THROW(parallel_for(100, 1,
                            [&](std::size_t begin, std::size_t, std::size_t) {
                              if (begin == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must still be usable after a failed loop.
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 1, [&](std::size_t begin, std::size_t, std::size_t) { sum += begin; });
  EXPECT_EQ(sum.load(), 4950u);
  set_num_threads(0);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  set_num_threads(4);
  std::vector<std::uint64_t> outer_sums(8, 0);
  parallel_for(8, 1, [&](std::size_t begin, std::size_t, std::size_t) {
    std::vector<std::uint64_t> inner(100, 0);
    parallel_for(100, 3, [&](std::size_t b, std::size_t e, std::size_t) {
      for (std::size_t i = b; i < e; ++i) inner[i] = i;
    });
    outer_sums[begin] = std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
  });
  for (std::uint64_t s : outer_sums) EXPECT_EQ(s, 4950u);
  set_num_threads(0);
}

// The threads that ran one loop's chunks. Each chunk waits (up to a shared
// deadline) for a second thread to show up, so the loop's first chunk cannot
// finish everything before a helper is scheduled; a pool that runs the loop
// on one thread records exactly one id and fails after the deadline.
struct ThreadSet {
  std::mutex m;
  std::condition_variable cv;
  std::set<std::thread::id> ids;  // guarded by m
  const std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);

  void record_and_wait_for_company() {
    std::unique_lock<std::mutex> lock(m);
    ids.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_until(lock, deadline, [&] { return ids.size() > 1; });
  }

  std::size_t distinct() {
    std::lock_guard<std::mutex> lock(m);
    return ids.size();
  }
};

TEST(ThreadPool, NestedLoopsRunOnMoreThanOneThread) {
  set_num_threads(4);
  for (std::size_t outer_chunks : {1u, 2u}) {
    std::vector<ThreadSet> inner(outer_chunks);
    parallel_for(outer_chunks, 1, [&](std::size_t begin, std::size_t, std::size_t) {
      parallel_for(8, 1, [&](std::size_t, std::size_t, std::size_t) {
        inner[begin].record_and_wait_for_company();
      });
    });
    for (std::size_t i = 0; i < outer_chunks; ++i) {
      EXPECT_GT(inner[i].distinct(), 1u)
          << "inner loop " << i << " of a " << outer_chunks << "-chunk outer loop";
    }
  }
  set_num_threads(0);
}

TEST(ThreadPool, CallerNeverWaitsOnQueuedHelpers) {
  set_num_threads(4);
  const std::size_t threads = num_threads();
  std::mutex m;
  std::condition_variable cv;
  std::size_t pinned = 0;  // guarded by m
  bool released = false;   // guarded by m
  bool timed_out = false;  // guarded by m

  // An outer loop with one chunk per pool thread, each blocking until
  // released: its caller and every pool worker end up pinned inside it.
  std::thread blocker([&] {
    parallel_for(threads, 1, [&](std::size_t, std::size_t, std::size_t) {
      std::unique_lock<std::mutex> lock(m);
      ++pinned;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return released; })) {
        timed_out = true;
      }
    });
  });
  {
    std::unique_lock<std::mutex> lock(m);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return pinned == threads; }))
        << "only " << pinned << " of " << threads << " threads pinned";
  }

  // Its helpers can only sit in the queue behind the pinned workers, so this
  // loop returns before the release only if the caller runs every chunk
  // itself and does not wait for them.
  std::atomic<std::size_t> ran{0};
  parallel_for(16, 1, [&](std::size_t, std::size_t, std::size_t) { ran.fetch_add(1); });
  bool returned_while_pinned = false;
  {
    std::lock_guard<std::mutex> lock(m);
    returned_while_pinned = !timed_out;
    released = true;
  }
  cv.notify_all();
  blocker.join();
  EXPECT_TRUE(returned_while_pinned);
  EXPECT_EQ(ran.load(), 16u);
  set_num_threads(0);
}

TEST(ThreadPool, StressManyConsecutiveLoops) {
  set_num_threads(8);
  std::uint64_t expected = 0;
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    expected += n;
    parallel_for(n, 2, [&](std::size_t begin, std::size_t end, std::size_t) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), expected);
  set_num_threads(0);
}

}  // namespace
}  // namespace muxlink::common
