// Content-addressed trained-model registry (DESIGN.md §11).
//
// The zoo is a flat directory of MXZOO1 blobs, one per fully-resolved
// training problem. The key is everything the trained weights depend on:
//
//   c<circuit>-<scheme>-h<hops>-f<dim>-s<seed>-t<config>-m<member>
//
//   circuit  fnv1a64 over the canonical BENCH text of the locked netlist
//            (netlist::write_bench), 16 hex digits — content, not filename
//   scheme   locking scheme label ("none" when untracked)
//   hops     enclosing-subgraph radius h
//   dim      node feature dimension
//   seed     base RNG seed
//   config   fnv1a64 over the canonical training-config string: epochs,
//            batch size, LR/dropout bit patterns, sampling caps, ensemble
//            size, conv topology, head widths, requested sortpool_k, and the
//            resolved kernel ISA (scalar vs avx2 differ in rounding, so a
//            blob trained by one must not serve the determinism contract of
//            the other)
//   member   ensemble member index
//
// Two runs that agree on the key would train bit-identical weights, so the
// blob substitutes for training; anything that could perturb a bit belongs
// in the key. Layout on disk:
//
//   <dir>/<key>.mzb          model blob (zoo/model_blob.h)
//   <dir>/<key>.pin          pin marker: gc never evicts a pinned entry
//   <dir>/scores/<key>.msc   the entry's per-link score cache (score_cache.h)
//
// LRU bookkeeping rides on mtimes: find() touches the blob, gc() evicts in
// ascending-mtime order until the byte budget holds. Inserts go through
// common::atomic_write_file, so concurrent writers of one key (two attacks
// racing on the same circuit) each stage a private temp and the renames
// serialize — readers always see a complete blob.
//
// Serving goes through serve(): a process-wide cache of verified, score-only
// LoadedModel handles, so a blob is mapped and CRC-checked once per file
// identity instead of once per job (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "zoo/model_blob.h"

namespace muxlink::zoo {

// FNV-1a 64-bit — the content hash behind registry keys and score-cache
// keys. Stable across platforms and builds (pure integer arithmetic).
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

// 16 lowercase hex digits, zero-padded.
std::string hex64(std::uint64_t v);

// One fully-resolved registry key (see the schema above).
struct ZooKey {
  std::uint64_t circuit_hash = 0;
  std::string scheme = "none";
  int hops = 0;
  int feature_dim = 0;
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  int member = 0;

  std::string str() const;
};

// A blob file's identity as stat(2) reports it. The registry changes a blob
// only by renaming a new inode over it (insert) or by a write that moves its
// mtime, so an unchanged stamp means unchanged bytes.
struct BlobStamp {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;

  bool operator==(const BlobStamp&) const = default;
};

// What find() saw before its LRU bump, and the mtime the bump wrote (nullopt
// when the bump failed).
struct FindStamp {
  BlobStamp found;
  std::optional<std::int64_t> wrote_mtime_ns;
};

class Registry {
 public:
  // Opens (and creates, including scores/) the registry rooted at `dir`.
  explicit Registry(std::filesystem::path dir);

  // Directory resolution: explicit argument (--zoo-dir) > MUXLINK_ZOO >
  // ~/.cache/muxlink/zoo ($HOME; falls back to ./.muxlink-zoo without one).
  static std::filesystem::path resolve_dir(const std::string& explicit_dir);

  const std::filesystem::path& dir() const noexcept { return dir_; }

  std::filesystem::path entry_path(const std::string& key) const;
  std::filesystem::path score_cache_path(const std::string& key) const;

  bool contains(const std::string& key) const;

  // Atomic insert/replace of a blob under `key`; drops any cached handle of
  // the old blob.
  void insert(const std::string& key, std::string_view blob_bytes) const;

  // LRU-bumps the entry (mtime := now, and always strictly past the stored
  // mtime) on every hit and returns its path; nullopt on miss. When `stamp`
  // is given, it receives the entry's identity before the bump and the mtime
  // the bump wrote.
  std::optional<std::filesystem::path> find(const std::string& key,
                                            FindStamp* stamp = nullptr) const;

  // find() + load_model_blob() for scoring, through the process-wide handle
  // cache: returns the entry's verified, score-only model (shared and
  // immutable; Dgcnn::score is safe from any number of threads), or nullptr
  // on a registry miss. The blob is mapped and CRC-checked only when no
  // cached handle matches (entry path, BlobStamp); the cache accepts the
  // mtime its own find() bump wrote, and any other identity change reloads
  // and re-verifies. Throws ZooError when the blob is corrupt or
  // incompatible. Counts serving.handle_hits / serving.handle_loads.
  std::shared_ptr<const LoadedModel> serve(const std::string& key) const;

  // Pinned entries survive any gc budget.
  void pin(const std::string& key) const;
  void unpin(const std::string& key) const;
  bool pinned(const std::string& key) const;

  struct Entry {
    std::string key;
    std::filesystem::path path;
    std::uintmax_t bytes = 0;  // blob + its score cache
    std::filesystem::file_time_type last_used{};
    bool pinned = false;
  };
  // All entries, least-recently-used first (gc order; ties break on key so
  // the order is total).
  std::vector<Entry> list() const;
  std::uintmax_t total_bytes() const;

  struct GcResult {
    std::vector<std::string> evicted;
    std::uintmax_t bytes_freed = 0;
    std::uintmax_t bytes_kept = 0;
  };
  // Evicts least-recently-used unpinned entries (blob + score cache + any
  // stale temp files) until the remaining total is <= max_bytes. Pinned
  // entries are skipped and still count toward bytes_kept. Cached handles
  // of evicted entries are dropped.
  GcResult gc(std::uintmax_t max_bytes) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace muxlink::zoo
