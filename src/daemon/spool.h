// Durable results spool of muxlinkd (`--spool D`, DESIGN.md §13). One
// result document per file under a spool directory — the directory IS the
// index, so there is no sidecar to corrupt and crash recovery is a scan.
//
// Layout:
//   <dir>/<job_id>.json       result document (atomic_write_file)
//   <dir>/<job_id>.fetched    empty marker: a client has retrieved it
//   <dir>/*.tmp.<pid>.<n>     stray staging files from a crashed writer
//
// Retention (enforced by gc(), run after every put and on demand):
//   * pinned-until-fetched — an entry with no `.fetched` marker is NEVER
//     removed by the size cap or TTL, so a result a client has not yet
//     seen survives any retention pressure.
//   * TTL — fetched entries older than `ttl_seconds` are removed.
//   * size cap — while total payload bytes exceed `max_bytes`, fetched
//     entries are removed oldest-first (mtime, ties broken by name).
//
// All methods are thread-safe; the server's compute workers call put()
// concurrently with client fetches marking entries.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace muxlink::daemon {

struct SpoolOptions {
  std::string dir;
  std::uint64_t max_bytes = 0;  // 0 = no size cap
  long ttl_seconds = 0;         // 0 = no TTL
};

struct SpoolStats {
  std::uint64_t entries = 0;         // current *.json files
  std::uint64_t bytes = 0;           // current payload bytes
  std::uint64_t unfetched = 0;       // entries with no .fetched marker
  std::uint64_t gc_removed = 0;      // lifetime removals by this process
  std::uint64_t recovered_temps = 0;  // stray temps swept at recovery
};

class ResultSpool {
 public:
  // Creates the directory if needed and runs crash recovery: sweeps stray
  // `*.tmp.*` staging files and orphan `.fetched` markers whose entry is
  // gone. Throws std::runtime_error if the directory cannot be created.
  explicit ResultSpool(SpoolOptions opts);

  // Durably stores `payload` as the result for `job_id`, then enforces
  // retention. Overwrites any previous entry (and clears its marker —
  // a rewritten result is unfetched again).
  void put(const std::string& job_id, std::string_view payload);

  // Returns the stored payload, or nullopt if the entry does not exist.
  std::optional<std::string> get(const std::string& job_id) const;

  // Marks the entry as fetched (idempotent; no-op for unknown ids). A
  // fetched entry becomes eligible for TTL/size-cap removal.
  void mark_fetched(const std::string& job_id);
  bool fetched(const std::string& job_id) const;

  // Sorted ids of all current entries (for tests and `daemon` stats).
  std::vector<std::string> ids() const;

  // Enforces TTL then the size cap, sparing unfetched entries.
  void gc();

  SpoolStats stats() const;
  const SpoolOptions& options() const { return opts_; }

 private:
  void gc_locked();

  SpoolOptions opts_;
  mutable std::mutex m_;
  std::uint64_t gc_removed_ = 0;
  std::uint64_t recovered_temps_ = 0;
};

}  // namespace muxlink::daemon
