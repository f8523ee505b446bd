// Observability layer: counters/gauges/histograms, deterministic merge
// across thread counts, span-tree nesting, manifest round-trips, and the
// MUXLINK_METRICS kill switch (DESIGN.md §7).
//
// The registry is process-wide; every test starts from reset() with metrics
// enabled so the cases stay order-independent.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"

namespace mc = muxlink::common;

namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mc::set_metrics_enabled(true);
    mc::MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    mc::MetricsRegistry::instance().reset();
    mc::set_metrics_enabled(true);
    mc::set_num_threads(1);
  }
};

TEST_F(MetricsTest, CounterAccumulates) {
  auto& reg = mc::MetricsRegistry::instance();
  reg.add("test.counter", 3);
  reg.add("test.counter", 4);
  MUXLINK_COUNTER_ADD("test.counter", 5);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("test.counter"));
  EXPECT_EQ(snap.counters.at("test.counter"), 12);
}

TEST_F(MetricsTest, GaugeKeepsNewestWrite) {
  auto& reg = mc::MetricsRegistry::instance();
  reg.set("test.gauge", 1.5);
  reg.set("test.gauge", 2.5);
  MUXLINK_GAUGE_SET("test.gauge", 42.0);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.gauges.contains("test.gauge"));
  EXPECT_EQ(snap.gauges.at("test.gauge"), 42.0);
}

TEST_F(MetricsTest, HistogramStatsAndBuckets) {
  auto& reg = mc::MetricsRegistry::instance();
  reg.record("test.hist", 1.5);   // [1,2)   -> bucket 24
  reg.record("test.hist", 0.75);  // [0.5,1) -> bucket 23
  reg.record("test.hist", 3.0);   // [2,4)   -> bucket 25
  reg.record("test.hist", -1.0);  // non-positive -> bucket 0
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.histograms.contains("test.hist"));
  const auto& h = snap.histograms.at("test.hist");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1.5 + 0.75 + 3.0 - 1.0);
  EXPECT_EQ(h.min, -1.0);
  EXPECT_EQ(h.max, 3.0);
  EXPECT_EQ(h.mean(), h.sum / 4.0);
  EXPECT_EQ(h.buckets[24], 1u);
  EXPECT_EQ(h.buckets[23], 1u);
  EXPECT_EQ(h.buckets[25], 1u);
  EXPECT_EQ(h.buckets[0], 1u);
}

// The whole point of the shard design: the merged totals are identical for
// any thread count, because counters sum integers and the shards merge in
// registration order. Histogram sums are exact here because the recorded
// values are integral.
TEST_F(MetricsTest, DeterministicMergeAcrossThreadCounts) {
  constexpr std::size_t kItems = 1000;
  std::vector<std::int64_t> counter_totals;
  std::vector<double> hist_sums;
  std::vector<std::uint64_t> hist_counts;
  for (std::size_t threads : {1u, 2u, 8u}) {
    mc::MetricsRegistry::instance().reset();
    mc::set_num_threads(threads);
    mc::parallel_for(kItems, 8, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        MUXLINK_COUNTER_ADD("merge.counter", static_cast<std::int64_t>(i % 7));
        MUXLINK_HISTOGRAM_RECORD("merge.hist", static_cast<double>(i % 13));
      }
    });
    const auto snap = mc::MetricsRegistry::instance().snapshot();
    counter_totals.push_back(snap.counters.at("merge.counter"));
    hist_sums.push_back(snap.histograms.at("merge.hist").sum);
    hist_counts.push_back(snap.histograms.at("merge.hist").count);
  }
  EXPECT_EQ(counter_totals[0], counter_totals[1]);
  EXPECT_EQ(counter_totals[0], counter_totals[2]);
  EXPECT_EQ(hist_sums[0], hist_sums[1]);
  EXPECT_EQ(hist_sums[0], hist_sums[2]);
  EXPECT_EQ(hist_counts[0], kItems);
  EXPECT_EQ(hist_counts[1], kItems);
  EXPECT_EQ(hist_counts[2], kItems);
}

const mc::SpanNode* find_child(const mc::SpanNode& node, const std::string& name) {
  for (const auto& c : node.children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST_F(MetricsTest, SpanTreeNestsByCallPath) {
  for (int i = 0; i < 3; ++i) {
    MUXLINK_TRACE("outer");
    {
      MUXLINK_TRACE("inner");
    }
    {
      MUXLINK_TRACE("inner");
    }
  }
  const mc::SpanNode root = mc::MetricsRegistry::instance().trace_tree();
  const mc::SpanNode* outer = find_child(root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_GE(outer->wall_seconds, 0.0);
  const mc::SpanNode* inner = find_child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 6u);  // two bodies x three iterations, one node
  // "inner" aggregates under "outer", never as its own root.
  EXPECT_EQ(find_child(root, "inner"), nullptr);
  // The parent's wall time covers its children's.
  EXPECT_GE(outer->wall_seconds, inner->wall_seconds);
}

TEST_F(MetricsTest, KillSwitchSuppressesEverything) {
  mc::set_metrics_enabled(false);
  EXPECT_FALSE(mc::metrics_enabled());
  MUXLINK_COUNTER_ADD("off.counter", 1);
  MUXLINK_GAUGE_SET("off.gauge", 1.0);
  MUXLINK_HISTOGRAM_RECORD("off.hist", 1.0);
  {
    MUXLINK_TRACE("off.span");
  }
  const auto snap = mc::MetricsRegistry::instance().snapshot();
  EXPECT_FALSE(snap.counters.contains("off.counter"));
  EXPECT_FALSE(snap.gauges.contains("off.gauge"));
  EXPECT_FALSE(snap.histograms.contains("off.hist"));
  EXPECT_EQ(find_child(mc::MetricsRegistry::instance().trace_tree(), "off.span"), nullptr);
  EXPECT_TRUE(mc::observability_to_json().is_null());

  // Re-enabling picks the same cells back up (cached pointers stay valid).
  mc::set_metrics_enabled(true);
  MUXLINK_COUNTER_ADD("off.counter", 2);
  EXPECT_EQ(mc::MetricsRegistry::instance().snapshot().counters.at("off.counter"), 2);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  auto& reg = mc::MetricsRegistry::instance();
  mc::Counter& c = reg.counter("reset.counter");
  c.add(5);
  reg.reset();
  EXPECT_FALSE(reg.snapshot().counters.contains("reset.counter"));
  c.add(7);  // the pre-reset handle still works
  EXPECT_EQ(reg.snapshot().counters.at("reset.counter"), 7);
}

TEST_F(MetricsTest, ObservabilityJsonShape) {
  auto& reg = mc::MetricsRegistry::instance();
  reg.add("obs.counter", 2);
  reg.set("obs.gauge", 3.5);
  reg.record("obs.hist", 4.0);
  {
    MUXLINK_TRACE("obs.span");
  }
  const mc::Json obs = mc::observability_to_json();
  ASSERT_TRUE(obs.is_object());
  EXPECT_EQ(obs.at("counters").int_or("obs.counter", -1), 2);
  EXPECT_EQ(obs.at("gauges").number_or("obs.gauge", -1.0), 3.5);
  const mc::Json& h = obs.at("histograms").at("obs.hist");
  EXPECT_EQ(h.int_or("count", -1), 1);
  EXPECT_EQ(h.number_or("sum", -1.0), 4.0);
  bool saw_span = false;
  for (const mc::Json& s : obs.at("spans").items()) {
    saw_span = saw_span || s.string_or("name", "") == "obs.span";
  }
  EXPECT_TRUE(saw_span);
}

TEST_F(MetricsTest, ManifestJsonRoundTrip) {
  mc::RunManifest m;
  m.tool = "test_tool";
  m.git_sha = "abc123";
  m.build_type = "Release";
  m.build_flags = "-O2";
  m.threads = 4;
  m.seed = 99;
  m.circuit = "c432";
  m.scheme = "dmux";
  m.key_bits = 32;
  m.add_stage("sample", 0.25);
  m.add_stage("train", 1.5);
  m.add_result("accuracy_percent", 87.5);
  m.add_result("training_links", 300.0);
  m.telemetry_path = "epochs.jsonl";
  m.extra = mc::Json::object();
  m.extra["hops"] = 3;

  const mc::Json j = m.to_json();
  // The wire format must survive a serialize -> parse cycle exactly
  // (shortest-round-trip doubles, int64 counters).
  const mc::Json reparsed = mc::Json::parse(j.dump());
  EXPECT_EQ(j, reparsed);

  const mc::RunManifest back = mc::RunManifest::from_json(reparsed);
  EXPECT_EQ(back.schema, "muxlink.run/v1");
  EXPECT_EQ(back.tool, m.tool);
  EXPECT_EQ(back.git_sha, m.git_sha);
  EXPECT_EQ(back.threads, m.threads);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.circuit, m.circuit);
  EXPECT_EQ(back.scheme, m.scheme);
  EXPECT_EQ(back.key_bits, m.key_bits);
  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[0].first, "sample");
  EXPECT_EQ(back.stages[0].second, 0.25);
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.results[0].first, "accuracy_percent");
  EXPECT_EQ(back.results[0].second, 87.5);
  EXPECT_EQ(back.telemetry_path, m.telemetry_path);
  EXPECT_EQ(back.extra.int_or("hops", -1), 3);
  // Round-tripping the rebuilt manifest reproduces the same document.
  EXPECT_EQ(back.to_json(), j);
}

TEST_F(MetricsTest, JsonNumberRoundTrip) {
  mc::Json j = mc::Json::object();
  j["big"] = std::int64_t{1} << 53;
  j["neg"] = -7;
  j["frac"] = 0.1;
  j["tiny"] = 1e-300;
  const mc::Json back = mc::Json::parse(j.dump());
  EXPECT_EQ(back.int_or("big", 0), std::int64_t{1} << 53);
  EXPECT_EQ(back.int_or("neg", 0), -7);
  EXPECT_EQ(back.number_or("frac", 0.0), 0.1);
  EXPECT_EQ(back.number_or("tiny", 0.0), 1e-300);
  EXPECT_EQ(j, back);
}

// --- JSON strings: the escaper and the decoder copy unescaped runs in bulk;
// these pin the bytes they produce and the exact error texts.

// The escaping rule, one byte at a time: the specification of json_escape.
std::string escaped_byte(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\b': return "\\b";
    case '\f': return "\\f";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default:
      if (c >= 0x20) return std::string(1, static_cast<char>(c));
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      return buf;
  }
}

TEST(JsonStrings, AllByteValuesRoundTrip) {
  std::string all, want;
  for (int c = 0; c < 256; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(mc::Json(one).dump(), "\"" + escaped_byte(static_cast<unsigned char>(c)) + "\"")
        << "byte " << c;
    EXPECT_EQ(mc::Json::parse(mc::Json(one).dump()).as_string(), one) << "byte " << c;
    all += one;
    want += escaped_byte(static_cast<unsigned char>(c));
  }
  // Runs of plain bytes between escapes, and the same inside an object.
  const std::string mixed = "plain run \"quoted\" back\\slash\x01tail" + all + all;
  mc::Json obj = mc::Json::object();
  obj["bench"] = mixed;
  obj["all"] = all;
  EXPECT_EQ(mc::Json(all).dump(), "\"" + want + "\"");
  const mc::Json back = mc::Json::parse(obj.dump());
  EXPECT_EQ(back.at("bench").as_string(), mixed);
  EXPECT_EQ(back.at("all").as_string(), all);
  EXPECT_EQ(back, obj);
  std::string escaped;
  mc::json_escape(mixed, escaped);
  EXPECT_EQ(escaped, "plain run \\\"quoted\\\" back\\\\slash\\u0001tail" + want + want);
}

TEST(JsonStrings, EveryEscapeDecodes) {
  EXPECT_EQ(mc::Json::parse(R"("\"\\\/\b\f\n\r\t")").as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(mc::Json::parse(R"("a\/b")").as_string(), "a/b");
  EXPECT_EQ(mc::Json::parse(R"("x\u0041y\u00e9\u20AC")").as_string(), "xAy\xC3\xA9\xE2\x82\xAC");
  for (unsigned c = 0; c < 256; ++c) {
    char hex[8];
    std::snprintf(hex, sizeof hex, "%02X", c);
    const std::string text = std::string("\"run\\u00") + hex + "run\"";
    std::string want = "run";
    if (c < 0x80) {
      want += static_cast<char>(c);
    } else {
      want += static_cast<char>(0xC0 | (c >> 6));
      want += static_cast<char>(0x80 | (c & 0x3F));
    }
    want += "run";
    EXPECT_EQ(mc::Json::parse(text).as_string(), want) << text;
  }
}

TEST(JsonStrings, ErrorMessagesAndOffsetsArePinned) {
  const std::pair<std::string, std::string> cases[] = {
      {"\"abc", "JSON parse error at offset 4: unterminated string"},
      {"{\"k\":\"a long unterminated run", "JSON parse error at offset 29: unterminated string"},
      {"\"", "JSON parse error at offset 1: unterminated string"},
      {"\"ab\\", "JSON parse error at offset 4: unterminated escape"},
      {"\"\\u12x4\"", "JSON parse error at offset 6: invalid \\u escape"},
      {"\"\\u12", "JSON parse error at offset 3: truncated \\u escape"},
      {"\"ok\\q\"", "JSON parse error at offset 5: invalid escape"},
  };
  for (const auto& [text, message] : cases) {
    try {
      mc::Json::parse(text);
      ADD_FAILURE() << "parsed: " << text;
    } catch (const mc::JsonError& e) {
      EXPECT_EQ(std::string(e.what()), message) << text;
    }
  }
}

TEST(JsonDepth, DeepNestingThrowsInsteadOfExhaustingTheStack) {
  EXPECT_EQ(mc::Json::parse(std::string(512, '[') + std::string(512, ']')).size(), 1u);
  try {
    mc::Json::parse(std::string(513, '[') + std::string(513, ']'));
    ADD_FAILURE() << "parsed 513 levels";
  } catch (const mc::JsonError& e) {
    EXPECT_EQ(std::string(e.what()), "JSON parse error at offset 512: nesting deeper than 512");
  }
  // A megabyte of brackets used to recurse once per byte and crash.
  EXPECT_THROW(mc::Json::parse(std::string(1 << 20, '[')), mc::JsonError);
  EXPECT_THROW(mc::Json::parse(std::string(1 << 20, '{')), mc::JsonError);
}

TEST_F(MetricsTest, JsonlWriterAppends) {
  const std::string path = ::testing::TempDir() + "/muxlink_test_telemetry.jsonl";
  std::remove(path.c_str());
  {
    mc::JsonlWriter w(path);
    mc::Json a = mc::Json::object();
    a["epoch"] = 1;
    w.write(a);
  }
  {
    mc::JsonlWriter w(path);  // reopening appends, never truncates
    mc::Json b = mc::Json::object();
    b["epoch"] = 2;
    w.write(b);
  }
  std::ifstream is(path);
  std::string line;
  std::vector<std::int64_t> epochs;
  while (std::getline(is, line)) {
    epochs.push_back(mc::Json::parse(line).int_or("epoch", -1));
  }
  std::remove(path.c_str());
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 1);
  EXPECT_EQ(epochs[1], 2);
}

}  // namespace
