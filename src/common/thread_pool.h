// Dependency-free fixed-size thread pool with a deterministic parallel_for.
//
// Design rules that every user of this header relies on:
//   * Chunking depends ONLY on (n, chunk) — never on the pool size — so a
//     caller that accumulates into chunk-indexed buffers and reduces them in
//     chunk order gets bit-identical results for any thread count.
//   * Nested parallel_for calls use the pool like any other: idle workers
//     join the inner loop. A caller waits only for helpers that already
//     joined its loop, never for helpers still queued (those find the loop
//     closed and return), so nesting at any depth cannot deadlock.
//   * The first exception thrown by `fn` is captured and rethrown on the
//     calling thread after every in-flight chunk has drained; remaining
//     chunks are skipped.
#pragma once

#include <cstddef>
#include <functional>

namespace muxlink::common {

// Number of threads parallel_for may use (>= 1; 1 means fully sequential).
// Defaults to the MUXLINK_THREADS environment variable when set, otherwise
// std::thread::hardware_concurrency().
std::size_t num_threads();

// Resizes the global pool. n = 0 restores the default (env / hardware).
// Must not be called from inside a parallel_for body.
void set_num_threads(std::size_t n);

// Number of chunks parallel_for splits [0, n) into: ceil(n / chunk).
inline std::size_t num_chunks(std::size_t n, std::size_t chunk) {
  return chunk == 0 ? 0 : (n + chunk - 1) / chunk;
}

// Runs fn(begin, end, chunk_index) over the contiguous chunks
// [c*chunk, min((c+1)*chunk, n)) for c in [0, num_chunks(n, chunk)),
// possibly concurrently. Returns after every chunk has run (or been skipped
// because an earlier chunk threw). The calling thread participates, so the
// pool is never idle-blocked on its own caller.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace muxlink::common
