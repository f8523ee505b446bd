// Capacity-bounded LRU cache of per-link posterior scores (DESIGN.md §11).
//
// Scoring one target link = extract its h-hop enclosing subgraph + one DGCNN
// forward pass. Both are pure functions of (model, circuit, extraction
// config, link endpoints), so a repeated attack — reruns, Algorithm-1
// parameter sweeps, report regeneration — recomputes identical numbers. The
// cache keys fnv1a64 over exactly those inputs (the registry key already
// folds in model + circuit + training config; the link key adds hops,
// subgraph cap, and the two gate names) and stores the scored probability,
// letting a hit skip extraction and inference entirely.
//
// Coherence rule: everything the score depends on is IN the key, so entries
// never go stale — a changed circuit, model, or config hashes to a
// different key (and a different cache file, since the file rides with its
// registry entry under <zoo>/scores/<registry-key>.msc).
//
// Determinism contract: a cache hit returns the bit-exact double the miss
// path computed (raw IEEE-754 bytes on disk, no decimal round-trip), so a
// cache-served run is bit-identical to a cleared-cache rerun. A corrupt or
// foreign cache file loads as empty — it is a disposable artifact; dropping
// it costs recomputation, never correctness.
//
// On-disk format (host-endian, a cache artifact like MXCKPT1):
//   magic   "MXSCC1\0\n"
//   payload u32 version (1) · u64 count ·
//           count × { u64 key · f64 score } in LRU order (oldest first,
//           so load() replays insertions and preserves eviction order)
//   crc32   u32 over the payload
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace muxlink::zoo {

class ScoreCache {
 public:
  // `capacity` bounds the entry count; inserting past it evicts the least
  // recently used entry. Capacity 0 disables the cache (every get misses,
  // put is a no-op).
  explicit ScoreCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return map_.size(); }

  // Bumps the entry to most-recently-used on hit.
  std::optional<double> get(std::uint64_t key);
  void put(std::uint64_t key, double score);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  // Replaces the contents from `path`. Returns false (leaving the cache
  // empty) when the file is missing, corrupt, truncated, or oversized —
  // never throws for a bad file.
  bool load(const std::filesystem::path& path);

  // Atomic write (temp + rename) of the current contents in LRU order.
  // Skipped when the bytes equal what the last load() of (or save() to) the
  // same path found there: a fully-hit served run replays its lookups in
  // the stored order, so it would rewrite — and fsync — identical bytes.
  void save(const std::filesystem::path& path);

 private:
  std::size_t capacity_;
  // lru_ front = least recently used, back = most recent.
  std::list<std::pair<std::uint64_t, double>> lru_;
  std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, double>>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // The file bytes at `on_disk_path_` as of the last load() or save().
  std::filesystem::path on_disk_path_;
  std::string on_disk_;
};

}  // namespace muxlink::zoo
