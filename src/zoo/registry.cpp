#include "zoo/registry.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <system_error>
#include <utility>

#include "common/atomic_file.h"
#include "common/metrics.h"

namespace muxlink::zoo {

namespace fs = std::filesystem;

namespace {

std::optional<BlobStamp> stamp_of(const fs::path& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return std::nullopt;
  return BlobStamp{static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
                   static_cast<std::uint64_t>(st.st_size),
                   static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec};
}

std::int64_t wall_clock_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Served-handle cache (DESIGN.md §11). One process-wide table of verified,
// score-only models, keyed by entry path. Each entry remembers the BlobStamp
// it was verified against and follows the mtime its own find() bumps write;
// any other change to the file's identity (a new inode from insert, an
// in-place write, another process's bump) makes the next serve reload and
// re-verify. Capacity is fixed; past it the least recently served entry
// goes. Every miss also sweeps entries whose file is gone or changed, so
// handles of deleted zoos do not stay mapped.
//
// The mutex covers find's stat + bump + compare, so this process's own bumps
// are always recorded before the next serve compares. Loads run under it too:
// they happen once per blob identity, and concurrent first requests for one
// blob then verify it once.
class HandleCache {
 public:
  static constexpr std::size_t kCapacity = 32;

  static HandleCache& instance() {
    // Never destroyed: a daemon worker may still hold the lock or a handle
    // while static destructors run at exit.
    static HandleCache* cache = new HandleCache;
    return *cache;
  }

  std::shared_ptr<const LoadedModel> serve(const Registry& reg, const std::string& key) {
    const fs::path path = reg.entry_path(key);
    std::lock_guard<std::mutex> lock(m_);
    FindStamp seen;
    if (!reg.find(key, &seen)) {
      sweep();
      return nullptr;
    }
    BlobStamp now = seen.found;
    if (seen.wrote_mtime_ns) now.mtime_ns = *seen.wrote_mtime_ns;
    const auto it = entries_.find(path.string());
    if (it != entries_.end() && it->second.stamp == seen.found) {
      it->second.stamp = now;
      it->second.last_use = ++tick_;
      MUXLINK_COUNTER_ADD("serving.handle_hits", 1);
      return it->second.handle;
    }
    if (it != entries_.end()) entries_.erase(it);
    sweep();
    LoadOptions opts;
    opts.score_only = true;
    auto handle = std::make_shared<const LoadedModel>(load_model_blob(path, opts));
    MUXLINK_COUNTER_ADD("serving.handle_loads", 1);
    if (entries_.size() >= kCapacity) {
      entries_.erase(std::min_element(entries_.begin(), entries_.end(),
                                      [](const auto& a, const auto& b) {
                                        return a.second.last_use < b.second.last_use;
                                      }));
    }
    entries_[path.string()] = Entry{now, handle, ++tick_};
    return handle;
  }

  void forget(const fs::path& path) {
    std::lock_guard<std::mutex> lock(m_);
    entries_.erase(path.string());
  }

 private:
  struct Entry {
    BlobStamp stamp;  // identity as of this process's last find() on it
    std::shared_ptr<const LoadedModel> handle;
    std::uint64_t last_use = 0;
  };

  // Drops entries whose file is gone or no longer matches its stamp.
  void sweep() {
    for (auto it = entries_.begin(); it != entries_.end();) {
      const auto stamp = stamp_of(it->first);
      it = stamp && *stamp == it->second.stamp ? std::next(it) : entries_.erase(it);
    }
  }

  std::mutex m_;
  std::map<std::string, Entry> entries_;
  std::uint64_t tick_ = 0;
};

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string ZooKey::str() const {
  return "c" + hex64(circuit_hash) + "-" + (scheme.empty() ? std::string("none") : scheme) +
         "-h" + std::to_string(hops) + "-f" + std::to_string(feature_dim) + "-s" +
         std::to_string(seed) + "-t" + hex64(config_hash) + "-m" + std::to_string(member);
}

Registry::Registry(fs::path dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_ / "scores");
}

fs::path Registry::resolve_dir(const std::string& explicit_dir) {
  if (!explicit_dir.empty()) return explicit_dir;
  if (const char* env = std::getenv("MUXLINK_ZOO"); env != nullptr && env[0] != '\0') {
    return env;
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && home[0] != '\0') {
    return fs::path(home) / ".cache" / "muxlink" / "zoo";
  }
  return fs::path(".muxlink-zoo");
}

fs::path Registry::entry_path(const std::string& key) const { return dir_ / (key + ".mzb"); }

fs::path Registry::score_cache_path(const std::string& key) const {
  return dir_ / "scores" / (key + ".msc");
}

bool Registry::contains(const std::string& key) const {
  std::error_code ec;
  return fs::is_regular_file(entry_path(key), ec);
}

void Registry::insert(const std::string& key, std::string_view blob_bytes) const {
  common::atomic_write_file(entry_path(key), blob_bytes);
  HandleCache::instance().forget(entry_path(key));
}

std::optional<fs::path> Registry::find(const std::string& key, FindStamp* stamp) const {
  const fs::path path = entry_path(key);
  const auto found = stamp_of(path);
  if (!found) return std::nullopt;
  if (stamp != nullptr) *stamp = FindStamp{*found, std::nullopt};
  // LRU bump. Best-effort: a hit on an entry someone just evicted still
  // reports the miss via the caller's subsequent open. On filesystems with
  // coarse mtime granularity (or when the entry's mtime sits in the future)
  // a plain clock::now() bump can fail to advance the timestamp, collapsing
  // the recency order of same-tick hits — never move the mtime backwards or
  // leave it equal; step one nanosecond past the stored time instead.
  const std::int64_t bumped = std::max(wall_clock_ns(), found->mtime_ns + 1);
  const timespec times[2] = {{0, UTIME_OMIT},
                             {static_cast<std::time_t>(bumped / 1000000000),
                              static_cast<long>(bumped % 1000000000)}};
  if (::utimensat(AT_FDCWD, path.c_str(), times, 0) == 0 && stamp != nullptr) {
    stamp->wrote_mtime_ns = bumped;
  }
  return path;
}

std::shared_ptr<const LoadedModel> Registry::serve(const std::string& key) const {
  return HandleCache::instance().serve(*this, key);
}

void Registry::pin(const std::string& key) const {
  std::ofstream(dir_ / (key + ".pin")).flush();
}

void Registry::unpin(const std::string& key) const {
  std::error_code ec;
  fs::remove(dir_ / (key + ".pin"), ec);
}

bool Registry::pinned(const std::string& key) const {
  std::error_code ec;
  return fs::exists(dir_ / (key + ".pin"), ec);
}

std::vector<Registry::Entry> Registry::list() const {
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".mzb") continue;
    Entry e;
    e.key = de.path().stem().string();
    e.path = de.path();
    e.bytes = de.file_size(ec);
    e.last_used = de.last_write_time(ec);
    e.pinned = pinned(e.key);
    std::error_code sec;
    const auto score_bytes = fs::file_size(score_cache_path(e.key), sec);
    if (!sec) e.bytes += score_bytes;
    entries.push_back(std::move(e));
  }
  // Entries sharing an mtime (same-second inserts on coarse-granularity
  // filesystems) fall back to key order, so find()/gc() see one well-defined
  // LRU order regardless of directory-iteration order.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.last_used != b.last_used ? a.last_used < b.last_used : a.key < b.key;
  });
  return entries;
}

std::uintmax_t Registry::total_bytes() const {
  std::uintmax_t total = 0;
  for (const Entry& e : list()) total += e.bytes;
  return total;
}

Registry::GcResult Registry::gc(std::uintmax_t max_bytes) const {
  // Sweep stray atomic-write temps first: a crashed insert leaves
  // <key>.mzb.tmp.<pid>.<n>, which no reader ever opens.
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (de.is_regular_file(ec) && de.path().filename().string().find(".tmp.") != std::string::npos) {
      std::error_code rec;
      fs::remove(de.path(), rec);
    }
  }

  GcResult result;
  std::vector<Entry> entries = list();  // LRU first
  std::uintmax_t remaining = 0;
  for (const Entry& e : entries) remaining += e.bytes;
  for (const Entry& e : entries) {
    if (remaining <= max_bytes) break;
    if (e.pinned) continue;
    std::error_code rec;
    fs::remove(e.path, rec);
    fs::remove(score_cache_path(e.key), rec);
    HandleCache::instance().forget(e.path);
    remaining -= e.bytes;
    result.bytes_freed += e.bytes;
    result.evicted.push_back(e.key);
  }
  result.bytes_kept = remaining;
  return result;
}

}  // namespace muxlink::zoo
