#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "common/json.h"

namespace perfbench {

TraceIndex::TraceIndex(const std::vector<SpanRecord>& spans)
    : spans_(spans), children_(spans.size()) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans_.size(); ++i) index_of[spans_[i].id] = i;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (const auto it = index_of.find(spans_[i].parent); it != index_of.end()) {
      children_[it->second].push_back(i);
    }
  }
}

std::int64_t TraceIndex::children_ns(std::size_t i) const {
  const SpanRecord& s = spans_[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(children_[i].size());
  for (std::size_t c : children_[i]) {
    const std::int64_t b = std::max(spans_[c].start_ns, s.start_ns);
    const std::int64_t e = std::min(spans_[c].end_ns, s.end_ns);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_b = 0, cur_e = -1;
  for (const auto& [b, e] : iv) {
    if (b > cur_e) {
      if (cur_e > cur_b) covered += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) covered += cur_e - cur_b;
  return covered;
}

std::int64_t TraceIndex::self_ns(std::size_t i) const {
  return (spans_[i].end_ns - spans_[i].start_ns) - children_ns(i);
}

std::vector<std::size_t> TraceIndex::roots(const std::string& name) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && name == spans_[i].name) out.push_back(i);
  }
  std::sort(out.begin(), out.end(),
            [&](std::size_t a, std::size_t b) { return spans_[a].start_ns < spans_[b].start_ns; });
  return out;
}

std::vector<std::size_t> TraceIndex::spans_of_job(std::int64_t job, const std::string& name) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].job == job && name == spans_[i].name) out.push_back(i);
  }
  return out;
}

std::vector<double> TraceIndex::per_job_ms(const std::string& root, const std::string& name) const {
  std::vector<double> out;
  for (std::size_t r : roots(root)) {
    const auto mine = spans_of_job(spans_[r].job, name);
    if (mine.empty()) continue;
    std::int64_t ns = 0;
    for (std::size_t i : mine) ns += spans_[i].end_ns - spans_[i].start_ns;
    out.push_back(static_cast<double>(ns) / 1e6);
  }
  return out;
}

std::vector<double> TraceIndex::per_job_mean_us(const std::string& root,
                                                const std::string& name) const {
  std::vector<double> out;
  for (std::size_t r : roots(root)) {
    const auto mine = spans_of_job(spans_[r].job, name);
    if (mine.empty()) continue;
    std::int64_t ns = 0;
    for (std::size_t i : mine) ns += spans_[i].end_ns - spans_[i].start_ns;
    out.push_back(static_cast<double>(ns) / 1e3 / static_cast<double>(mine.size()));
  }
  return out;
}

std::map<std::string, TraceIndex::NameTotals> TraceIndex::totals_by_name() const {
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    t.self_ms += static_cast<double>(self_ns(i)) / 1e6;
  }
  return out;
}

void write_spans_jsonl(const std::vector<SpanRecord>& spans, const std::filesystem::path& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write '" + path.string() + "'");
  for (const SpanRecord& s : spans) {
    muxlink::common::Json j = muxlink::common::Json::object();
    j["name"] = s.name;
    j["id"] = static_cast<long long>(s.id);
    j["parent"] = static_cast<long long>(s.parent);
    j["job"] = static_cast<long long>(s.job);
    j["start_ns"] = static_cast<long long>(s.start_ns);
    j["end_ns"] = static_cast<long long>(s.end_ns);
    os << j.dump() << "\n";
  }
}

}  // namespace perfbench
