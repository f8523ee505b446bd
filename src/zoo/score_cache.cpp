#include "zoo/score_cache.h"

#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "common/atomic_file.h"
#include "common/crc32.h"

namespace muxlink::zoo {

namespace {

constexpr char kMagic[8] = {'M', 'X', 'S', 'C', 'C', '1', '\0', '\n'};
constexpr std::uint32_t kVersion = 1;
// A corrupt count field must not drive unbounded allocation; real caches are
// capacity-bounded far below this.
constexpr std::uint64_t kMaxEntries = 1ull << 24;

template <typename T>
void put_raw(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool get_raw(const char*& p, std::size_t& left, T& value) {
  if (left < sizeof(T)) return false;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  left -= sizeof(T);
  return true;
}

}  // namespace

std::optional<double> ScoreCache::get(std::uint64_t key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.end(), lru_, it->second);  // bump to most-recently-used
  return it->second->second;
}

void ScoreCache::put(std::uint64_t key, double score) {
  if (capacity_ == 0) return;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = score;
    lru_.splice(lru_.end(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.front().first);
    lru_.pop_front();
  }
  lru_.emplace_back(key, score);
  map_.emplace(key, std::prev(lru_.end()));
}

bool ScoreCache::load(const std::filesystem::path& path) {
  lru_.clear();
  map_.clear();
  on_disk_path_ = path;
  on_disk_.clear();
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t)) {
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return false;
  const std::string_view payload(bytes.data() + sizeof(kMagic),
                                 bytes.size() - sizeof(kMagic) - sizeof(std::uint32_t));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(std::uint32_t),
              sizeof(std::uint32_t));
  if (common::crc32(payload) != stored_crc) return false;

  const char* p = payload.data();
  std::size_t left = payload.size();
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!get_raw(p, left, version) || version != kVersion) return false;
  if (!get_raw(p, left, count) || count > kMaxEntries ||
      left != count * (sizeof(std::uint64_t) + sizeof(double))) {
    return false;
  }
  // Replaying oldest-first reproduces the saved LRU order; entries past
  // capacity evict in that same order, keeping load(save(c)) == c whenever
  // the capacities agree.
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    double score = 0.0;
    if (!get_raw(p, left, key) || !get_raw(p, left, score)) {
      lru_.clear();
      map_.clear();
      return false;
    }
    put(key, score);
  }
  on_disk_ = std::move(bytes);
  return true;
}

void ScoreCache::save(const std::filesystem::path& path) {
  std::string payload;
  payload.reserve(sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                  lru_.size() * (sizeof(std::uint64_t) + sizeof(double)));
  put_raw(payload, kVersion);
  put_raw(payload, static_cast<std::uint64_t>(lru_.size()));
  for (const auto& [key, score] : lru_) {
    put_raw(payload, key);
    put_raw(payload, score);
  }
  std::string out;
  out.reserve(sizeof(kMagic) + payload.size() + sizeof(std::uint32_t));
  out.append(kMagic, sizeof(kMagic));
  out += payload;
  put_raw(out, common::crc32(payload));
  if (path == on_disk_path_ && out == on_disk_) return;
  common::atomic_write_file(path, out);
  on_disk_path_ = path;
  on_disk_ = std::move(out);
}

}  // namespace muxlink::zoo
