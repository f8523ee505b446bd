// Unit tests for the netlist substrate: gate types, netlist construction and
// mutation, structural analyses, and BENCH round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <typeinfo>
#include <unordered_map>

#include "circuitgen/suites.h"
#include "graph/circuit_graph.h"
#include "locking/mux_lock.h"
#include "locking/schemes.h"
#include "netlist/analysis.h"
#include "netlist/bench_io.h"
#include "netlist/gate_type.h"
#include "netlist/netlist.h"
#include "support/netlist_model.h"

// Every global operator new is counted while `g_counting` is set, so a test
// can assert how many heap allocations a call makes.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};
}  // namespace

// GCC flags the malloc/free pairing once these are inlined into callers;
// replacing both halves of the pair is what makes it correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace muxlink::netlist {
namespace {

// --- GateType ---------------------------------------------------------------

TEST(GateType, RoundTripsThroughStrings) {
  for (int t = 0; t < kNumGateTypes; ++t) {
    const auto type = static_cast<GateType>(t);
    const auto parsed = gate_type_from_string(to_string(type));
    ASSERT_TRUE(parsed.has_value()) << to_string(type);
    EXPECT_EQ(*parsed, type);
  }
}

TEST(GateType, ParsingIsCaseInsensitive) {
  EXPECT_EQ(gate_type_from_string("nand"), GateType::kNand);
  EXPECT_EQ(gate_type_from_string("Xor"), GateType::kXor);
  EXPECT_EQ(gate_type_from_string("mux"), GateType::kMux);
}

TEST(GateType, AcceptsCommonAliases) {
  EXPECT_EQ(gate_type_from_string("BUFF"), GateType::kBuf);
  EXPECT_EQ(gate_type_from_string("INV"), GateType::kNot);
  EXPECT_EQ(gate_type_from_string("vcc"), GateType::kConst1);
  EXPECT_EQ(gate_type_from_string("gnd"), GateType::kConst0);
}

TEST(GateType, RejectsUnknownNames) {
  EXPECT_FALSE(gate_type_from_string("FLIPFLOP").has_value());
  EXPECT_FALSE(gate_type_from_string("").has_value());
}

TEST(GateType, ArityRanges) {
  EXPECT_EQ(min_fanin(GateType::kInput), 0);
  EXPECT_EQ(max_fanin(GateType::kInput), 0);
  EXPECT_EQ(min_fanin(GateType::kNot), 1);
  EXPECT_EQ(max_fanin(GateType::kNot), 1);
  EXPECT_EQ(min_fanin(GateType::kAnd), 2);
  EXPECT_LT(max_fanin(GateType::kAnd), 0);  // unbounded
  EXPECT_EQ(min_fanin(GateType::kMux), 3);
  EXPECT_EQ(max_fanin(GateType::kMux), 3);
}

TEST(GateType, ConstantPredicate) {
  EXPECT_TRUE(is_constant(GateType::kConst0));
  EXPECT_TRUE(is_constant(GateType::kConst1));
  EXPECT_FALSE(is_constant(GateType::kAnd));
  EXPECT_FALSE(is_constant(GateType::kInput));
}

// --- Netlist construction ----------------------------------------------------

Netlist make_small() {
  // a, b -> n1 = AND(a, b); n2 = NOT(n1); outputs: n1, n2
  Netlist nl("small");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId n1 = nl.add_gate("n1", GateType::kAnd, {a, b});
  const GateId n2 = nl.add_gate("n2", GateType::kNot, {n1});
  nl.mark_output(n1);
  nl.mark_output(n2);
  return nl;
}

TEST(Netlist, BuildsAndLooksUpGates) {
  Netlist nl = make_small();
  EXPECT_EQ(nl.num_gates(), 4u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  const GateId n1 = nl.find("n1");
  ASSERT_NE(n1, kNullGate);
  EXPECT_EQ(nl.gate(n1).type, GateType::kAnd);
  EXPECT_EQ(nl.gate(n1).fanins.size(), 2u);
  EXPECT_EQ(nl.find("nope"), kNullGate);
}

TEST(Netlist, RejectsDuplicateNames) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), NetlistError);
  EXPECT_THROW(nl.add_gate("a", GateType::kNot, {0}), NetlistError);
}

TEST(Netlist, RejectsEmptyName) {
  Netlist nl;
  EXPECT_THROW(nl.add_input(""), NetlistError);
}

TEST(Netlist, RejectsArityViolations) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate("g", GateType::kAnd, {a}), NetlistError);
  EXPECT_THROW(nl.add_gate("g", GateType::kNot, {a, a}), NetlistError);
  EXPECT_THROW(nl.add_gate("g", GateType::kMux, {a, a}), NetlistError);
  EXPECT_NO_THROW(nl.add_gate("g", GateType::kMux, {a, a, a}));
}

TEST(Netlist, RejectsDanglingFanin) {
  Netlist nl;
  nl.add_input("a");
  EXPECT_THROW(nl.add_gate("g", GateType::kNot, {42}), NetlistError);
}

// Error precedence: empty name, then duplicate, then arity, then dangling
// fanin. A rejected gate leaves no trace in the name index.
TEST(Netlist, AddGateErrorPrecedenceAndRollback) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const auto message = [&](const std::string& name, GateType type, std::vector<GateId> fanins) {
    try {
      nl.add_gate(name, type, std::move(fanins));
    } catch (const NetlistError& e) {
      return std::string(e.what());
    }
    return std::string("added");
  };
  EXPECT_EQ(message("", GateType::kAnd, {42}), "gate name must not be empty");
  EXPECT_EQ(message("a", GateType::kAnd, {42}), "duplicate gate name 'a'");
  EXPECT_EQ(message("g", GateType::kAnd, {42}), "gate 'g': AND cannot take 1 fanins");
  EXPECT_EQ(message("g", GateType::kNot, {42}), "gate 'g': dangling fanin id 42");
  EXPECT_FALSE(nl.contains("g"));
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(message("g", GateType::kNot, {a}), "added");
  EXPECT_EQ(nl.find("g"), 1u);
}

TEST(Netlist, MarkOutputIsIdempotent) {
  Netlist nl = make_small();
  const GateId n1 = nl.find("n1");
  nl.mark_output(n1);
  nl.mark_output(n1);
  EXPECT_EQ(nl.outputs().size(), 2u);
  nl.unmark_output(n1);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_FALSE(nl.is_output(n1));
}

TEST(Netlist, MarkOutputRejectsBadId) {
  Netlist nl = make_small();
  EXPECT_THROW(nl.mark_output(99), NetlistError);
}

TEST(Netlist, FanoutsTrackConnections) {
  Netlist nl = make_small();
  const GateId a = nl.find("a");
  const GateId n1 = nl.find("n1");
  const GateId n2 = nl.find("n2");
  ASSERT_EQ(nl.fanouts(a).size(), 1u);
  EXPECT_EQ(nl.fanouts(a)[0].sink, n1);
  EXPECT_EQ(nl.fanouts(a)[0].port, 0u);
  ASSERT_EQ(nl.fanouts(n1).size(), 1u);
  EXPECT_EQ(nl.fanouts(n1)[0].sink, n2);
  EXPECT_TRUE(nl.fanouts(n2).empty());
}

TEST(Netlist, FanoutGateCountDeduplicatesSinks) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_gate("g", GateType::kAnd, {a, a});  // both ports from `a`
  EXPECT_EQ(nl.fanout_gate_count(a), 1u);
}

TEST(Netlist, ReplaceFaninRewires) {
  Netlist nl = make_small();
  const GateId b = nl.find("b");
  const GateId n2 = nl.find("n2");
  nl.replace_fanin(n2, 0, b);
  EXPECT_EQ(nl.gate(n2).fanins[0], b);
  // Fanout cache refreshed.
  EXPECT_EQ(nl.fanout_gate_count(nl.find("n1")), 0u);
  EXPECT_EQ(nl.fanout_gate_count(b), 2u);
}

TEST(Netlist, ReplaceFaninValidatesArguments) {
  Netlist nl = make_small();
  EXPECT_THROW(nl.replace_fanin(99, 0, 0), NetlistError);
  EXPECT_THROW(nl.replace_fanin(nl.find("n2"), 5, 0), NetlistError);
  EXPECT_THROW(nl.replace_fanin(nl.find("n2"), 0, 99), NetlistError);
}

TEST(Netlist, RewriteGateChangesTypeAndFanins) {
  Netlist nl = make_small();
  const GateId n2 = nl.find("n2");
  const GateId a = nl.find("a");
  const GateId b = nl.find("b");
  nl.rewrite_gate(n2, GateType::kXor, {a, b});
  EXPECT_EQ(nl.gate(n2).type, GateType::kXor);
  EXPECT_EQ(nl.gate(n2).fanins.size(), 2u);
  nl.validate();
}

TEST(Netlist, RewriteGateGuards) {
  Netlist nl = make_small();
  EXPECT_THROW(nl.rewrite_gate(nl.find("a"), GateType::kBuf, {0}), NetlistError);
  EXPECT_THROW(nl.rewrite_gate(nl.find("n1"), GateType::kInput, {}), NetlistError);
  EXPECT_THROW(nl.rewrite_gate(nl.find("n1"), GateType::kNot, {0, 1}), NetlistError);
}

TEST(Netlist, RenameGateUpdatesIndex) {
  Netlist nl = make_small();
  const GateId n1 = nl.find("n1");
  nl.rename_gate(n1, "renamed");
  EXPECT_EQ(nl.find("renamed"), n1);
  EXPECT_EQ(nl.find("n1"), kNullGate);
  EXPECT_THROW(nl.rename_gate(n1, "a"), NetlistError);  // duplicate
  nl.validate();
}

TEST(Netlist, RemoveGatesCompactsIds) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId dead = nl.add_gate("dead", GateType::kNot, {a});
  const GateId keep = nl.add_gate("keep", GateType::kBuf, {a});
  (void)dead;
  nl.mark_output(keep);
  std::vector<bool> mask(nl.num_gates(), false);
  mask[1] = true;  // `dead`
  const auto remap = nl.remove_gates(mask);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(remap[1], kNullGate);
  EXPECT_EQ(nl.find("dead"), kNullGate);
  const GateId keep2 = nl.find("keep");
  ASSERT_NE(keep2, kNullGate);
  EXPECT_EQ(nl.gate(keep2).fanins[0], nl.find("a"));
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.outputs()[0], keep2);
  nl.validate();
}

TEST(Netlist, RemoveGatesRefusesLiveDependents) {
  Netlist nl = make_small();
  std::vector<bool> mask(nl.num_gates(), false);
  mask[nl.find("a")] = true;  // n1 still uses it
  EXPECT_THROW(nl.remove_gates(mask), NetlistError);
}

TEST(Netlist, RemoveGatesRefusesDeadOutputs) {
  Netlist nl = make_small();
  std::vector<bool> mask(nl.num_gates(), false);
  mask[nl.find("n2")] = true;  // is a PO
  EXPECT_THROW(nl.remove_gates(mask), NetlistError);
}

TEST(Netlist, ValidatePassesOnWellFormed) {
  Netlist nl = make_small();
  EXPECT_NO_THROW(nl.validate());
}

// --- Analyses -----------------------------------------------------------------

Netlist make_diamond() {
  // a -> n1, n2; n1,n2 -> n3 (PO). Classic reconvergent fanout.
  Netlist nl("diamond");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId n1 = nl.add_gate("n1", GateType::kNot, {a});
  const GateId n2 = nl.add_gate("n2", GateType::kAnd, {a, b});
  const GateId n3 = nl.add_gate("n3", GateType::kOr, {n1, n2});
  nl.mark_output(n3);
  return nl;
}

TEST(Analysis, TopologicalOrderRespectsDependencies) {
  Netlist nl = make_diamond();
  const auto order = topological_order(nl);
  ASSERT_EQ(order.size(), nl.num_gates());
  std::vector<std::size_t> pos(nl.num_gates());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (GateId f : nl.gate(g).fanins) EXPECT_LT(pos[f], pos[g]);
  }
}

TEST(Analysis, LoopDetection) {
  Netlist nl = make_diamond();
  EXPECT_FALSE(has_combinational_loop(nl));
  // Create a cycle: n1's fanin <- n3.
  nl.replace_fanin(nl.find("n1"), 0, nl.find("n3"));
  EXPECT_TRUE(has_combinational_loop(nl));
  EXPECT_THROW(topological_order(nl), NetlistError);
}

TEST(Analysis, TransitiveFanout) {
  Netlist nl = make_diamond();
  EXPECT_TRUE(in_transitive_fanout(nl, nl.find("a"), nl.find("n3")));
  EXPECT_TRUE(in_transitive_fanout(nl, nl.find("n1"), nl.find("n3")));
  EXPECT_FALSE(in_transitive_fanout(nl, nl.find("n3"), nl.find("a")));
  EXPECT_FALSE(in_transitive_fanout(nl, nl.find("n1"), nl.find("n2")));
  EXPECT_FALSE(in_transitive_fanout(nl, nl.find("a"), nl.find("a")));
}

TEST(Analysis, FaninCone) {
  Netlist nl = make_diamond();
  const auto cone = fanin_cone(nl, nl.find("n3"));
  EXPECT_TRUE(cone[nl.find("n3")]);
  EXPECT_TRUE(cone[nl.find("n1")]);
  EXPECT_TRUE(cone[nl.find("n2")]);
  EXPECT_TRUE(cone[nl.find("a")]);
  EXPECT_TRUE(cone[nl.find("b")]);
  const auto cone1 = fanin_cone(nl, nl.find("n1"));
  EXPECT_FALSE(cone1[nl.find("b")]);
}

TEST(Analysis, FanoutCone) {
  Netlist nl = make_diamond();
  const auto cone = fanout_cone(nl, nl.find("b"));
  EXPECT_TRUE(cone[nl.find("b")]);
  EXPECT_TRUE(cone[nl.find("n2")]);
  EXPECT_TRUE(cone[nl.find("n3")]);
  EXPECT_FALSE(cone[nl.find("n1")]);
  EXPECT_FALSE(cone[nl.find("a")]);
}

TEST(Analysis, ReachesOutput) {
  Netlist nl = make_diamond();
  nl.add_gate("orphan", GateType::kNot, {nl.find("a")});
  const auto reach = reaches_output(nl);
  EXPECT_TRUE(reach[nl.find("n3")]);
  EXPECT_TRUE(reach[nl.find("a")]);
  EXPECT_FALSE(reach[nl.find("orphan")]);
}

TEST(Analysis, LogicLevels) {
  Netlist nl = make_diamond();
  const auto lvl = logic_levels(nl);
  EXPECT_EQ(lvl[nl.find("a")], 0);
  EXPECT_EQ(lvl[nl.find("n1")], 1);
  EXPECT_EQ(lvl[nl.find("n2")], 1);
  EXPECT_EQ(lvl[nl.find("n3")], 2);
}

TEST(Analysis, StatsCountTypesAndFanoutClasses) {
  Netlist nl = make_diamond();
  const auto s = compute_stats(nl);
  EXPECT_EQ(s.num_gates, 5u);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.num_outputs, 1u);
  EXPECT_EQ(s.num_logic_gates, 3u);
  EXPECT_EQ(s.depth, 2);
  EXPECT_EQ(s.count_by_type[static_cast<int>(GateType::kAnd)], 1u);
  EXPECT_EQ(s.count_by_type[static_cast<int>(GateType::kInput)], 2u);
  // a drives n1 and n2 but is a PI, so not counted; n1, n2 drive one sink each;
  // n3 drives none.
  EXPECT_EQ(s.single_output_gates, 2u);
  EXPECT_EQ(s.multi_output_gates, 0u);
  EXPECT_FALSE(format_stats(s).empty());
}

// --- BENCH IO ------------------------------------------------------------------

constexpr const char* kC17 = R"(# c17 ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIO, ParsesC17) {
  const Netlist nl = parse_bench(kC17, "c17");
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.num_gates(), 11u);
  const auto s = compute_stats(nl);
  EXPECT_EQ(s.count_by_type[static_cast<int>(GateType::kNand)], 6u);
  EXPECT_EQ(s.depth, 3);
}

TEST(BenchIO, RoundTripPreservesStructure) {
  const Netlist nl = parse_bench(kC17, "c17");
  const Netlist nl2 = parse_bench(write_bench(nl), "c17rt");
  EXPECT_EQ(nl2.num_gates(), nl.num_gates());
  EXPECT_EQ(nl2.inputs().size(), nl.inputs().size());
  EXPECT_EQ(nl2.outputs().size(), nl.outputs().size());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& orig = nl.gate(g);
    const GateId g2 = nl2.find(orig.name);
    ASSERT_NE(g2, kNullGate) << orig.name;
    EXPECT_EQ(nl2.gate(g2).type, orig.type);
    ASSERT_EQ(nl2.gate(g2).fanins.size(), orig.fanins.size());
    for (std::size_t i = 0; i < orig.fanins.size(); ++i) {
      EXPECT_EQ(nl2.gate(nl2.gate(g2).fanins[i]).name, nl.gate(orig.fanins[i]).name);
    }
  }
}

TEST(BenchIO, HandlesOutOfOrderDefinitions) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
y = NOT(x)
x = BUF(a)
)");
  EXPECT_EQ(nl.num_gates(), 3u);
  EXPECT_EQ(nl.gate(nl.find("y")).type, GateType::kNot);
}

TEST(BenchIO, HandlesMuxAndConstants) {
  const Netlist nl = parse_bench(R"(
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
c1 = CONST1()
m = MUX(s, a, b)
y = AND(m, c1)
)");
  EXPECT_EQ(nl.gate(nl.find("m")).type, GateType::kMux);
  EXPECT_EQ(nl.gate(nl.find("c1")).type, GateType::kConst1);
}

TEST(BenchIO, IgnoresCommentsAndBlankLines) {
  const Netlist nl = parse_bench("\n# hi\nINPUT(a)  # trailing\n\nOUTPUT(a)\n");
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_TRUE(nl.is_output(nl.find("a")));
}

TEST(BenchIO, ToleratesWhitespaceVariants) {
  const Netlist nl = parse_bench("INPUT( a )\nOUTPUT( y )\ny   =  nand( a ,a )\n");
  EXPECT_EQ(nl.gate(nl.find("y")).type, GateType::kNand);
}

TEST(BenchIO, ErrorsCarryLineNumbers) {
  try {
    parse_bench("INPUT(a)\nz = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(BenchIO, RejectsUndefinedSignals) {
  EXPECT_THROW(parse_bench("OUTPUT(y)\ny = NOT(ghost)\n"), BenchParseError);
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(zzz)\n"), BenchParseError);
}

TEST(BenchIO, RejectsCombinationalLoops) {
  EXPECT_THROW(parse_bench("INPUT(a)\nx = NOT(y)\ny = NOT(x)\n"), BenchParseError);
}

TEST(BenchIO, RejectsDuplicateDefinitions) {
  EXPECT_THROW(parse_bench("INPUT(a)\nx = NOT(a)\nx = BUF(a)\n"), BenchParseError);
  EXPECT_THROW(parse_bench("INPUT(a)\na = NOT(a)\n"), BenchParseError);
}

TEST(BenchIO, RejectsMalformedLines) {
  EXPECT_THROW(parse_bench("WHAT IS THIS\n"), BenchParseError);
  EXPECT_THROW(parse_bench("INPUT(a, b)\n"), BenchParseError);
  EXPECT_THROW(parse_bench(" = NOT(a)\n"), BenchParseError);
  EXPECT_THROW(parse_bench("x = (a)\n"), BenchParseError);
}

TEST(BenchIO, RejectsInputOnAssignment) {
  EXPECT_THROW(parse_bench("x = INPUT()\n"), BenchParseError);
}

TEST(BenchIO, HandlesCrlfLineEndings) {
  // Windows-authored benchmark files reach the parser unconverted.
  const Netlist nl = parse_bench("INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)\r\n");
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.gate(nl.find("y")).type, GateType::kNot);
}

TEST(BenchIO, StripsUtf8ByteOrderMark) {
  const Netlist nl = parse_bench("\xEF\xBB\xBFINPUT(a)\nOUTPUT(a)\n");
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_TRUE(nl.is_output(nl.find("a")));
  // The BOM is only accepted at the start of the file, not mid-stream.
  EXPECT_THROW(parse_bench("INPUT(a)\n\xEF\xBB\xBFOUTPUT(a)\n"), BenchParseError);
}

TEST(BenchIO, HandlesCommentAtEofWithoutNewline) {
  const Netlist nl = parse_bench("INPUT(a)\nOUTPUT(a)\n# trailing comment, no newline");
  EXPECT_EQ(nl.num_gates(), 1u);
  // Same for a directive as the unterminated last line.
  const Netlist nl2 = parse_bench("INPUT(a)\nOUTPUT(a)");
  EXPECT_TRUE(nl2.is_output(nl2.find("a")));
}

TEST(BenchIO, DuplicateOutputReportsBothLines) {
  try {
    parse_bench("INPUT(a)\nOUTPUT(a)\n\nOUTPUT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate OUTPUT declaration of 'a'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first declared at line 2"), std::string::npos) << msg;
  }
}

TEST(BenchIO, DuplicateInputReportsLine) {
  try {
    parse_bench("INPUT(a)\nINPUT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate INPUT declaration of 'a'"), std::string::npos) << msg;
  }
}

TEST(BenchIO, FileRoundTrip) {
  const Netlist nl = parse_bench(kC17, "c17");
  const auto path = std::filesystem::temp_directory_path() / "muxlink_c17.bench";
  write_bench_file(nl, path);
  const Netlist back = read_bench_file(path);
  EXPECT_EQ(back.num_gates(), nl.num_gates());
  std::filesystem::remove(path);
}

// --- differential test against the previous parser -------------------------
//
// `oracle::parse_bench` is the istringstream/getline parser that
// parse_bench replaced, kept verbatim as the specification of its output
// and diagnostics. Both parsers must agree on every input: the same gates,
// types, fanins, inputs and outputs, or the same exception type and message.

namespace oracle {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw BenchParseError("BENCH parse error at line " + std::to_string(line_no) + ": " + what);
}

struct PendingGate {
  std::string name;
  GateType type;
  std::vector<std::string> fanin_names;
  int line_no;
};

bool split_call(std::string_view rhs, std::string_view& func,
                std::vector<std::string>& operands) {
  const auto open = rhs.find('(');
  const auto close = rhs.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    return false;
  }
  func = trim(rhs.substr(0, open));
  operands.clear();
  std::string_view args = rhs.substr(open + 1, close - open - 1);
  std::size_t start = 0;
  while (start <= args.size()) {
    const auto comma = args.find(',', start);
    std::string_view tok = comma == std::string_view::npos ? args.substr(start)
                                                           : args.substr(start, comma - start);
    tok = trim(tok);
    if (!tok.empty()) operands.emplace_back(tok);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return true;
}

Netlist parse_bench(std::string_view text, std::string name) {
  Netlist nl(std::move(name));
  std::vector<PendingGate> pending;
  std::vector<std::pair<std::string, int>> output_names;
  std::unordered_map<std::string, int> output_first_line;

  if (text.starts_with("\xEF\xBB\xBF")) text.remove_prefix(3);

  std::istringstream in{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = raw;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    std::string_view func;
    std::vector<std::string> operands;
    if (eq == std::string_view::npos) {
      if (!split_call(line, func, operands)) fail(line_no, "expected INPUT/OUTPUT/assignment");
      std::string upper;
      for (char c : func) upper.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
      if (operands.size() != 1) fail(line_no, "INPUT/OUTPUT takes exactly one name");
      if (upper == "INPUT") {
        if (nl.contains(operands[0])) {
          fail(line_no, "duplicate INPUT declaration of '" + operands[0] + "'");
        }
        nl.add_input(operands[0]);
      } else if (upper == "OUTPUT") {
        const auto [it, inserted] = output_first_line.emplace(operands[0], line_no);
        if (!inserted) {
          fail(line_no, "duplicate OUTPUT declaration of '" + operands[0] +
                            "' (first declared at line " + std::to_string(it->second) + ")");
        }
        output_names.emplace_back(operands[0], line_no);
      } else {
        fail(line_no, "unknown directive '" + std::string(func) + "'");
      }
      continue;
    }

    const std::string_view lhs = trim(line.substr(0, eq));
    const std::string_view rhs = trim(line.substr(eq + 1));
    if (lhs.empty()) fail(line_no, "empty signal name");
    if (!split_call(rhs, func, operands)) fail(line_no, "expected FUNC(args)");
    const auto type = gate_type_from_string(func);
    if (!type) fail(line_no, "unknown gate function '" + std::string(func) + "'");
    if (*type == GateType::kInput) fail(line_no, "INPUT cannot appear on an assignment");
    pending.push_back(PendingGate{std::string(lhs), *type, std::move(operands), line_no});
  }

  std::unordered_map<std::string, std::size_t> pending_by_name;
  pending_by_name.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (nl.contains(pending[i].name)) fail(pending[i].line_no, "redefinition of an INPUT");
    if (!pending_by_name.emplace(pending[i].name, i).second) {
      fail(pending[i].line_no, "duplicate definition of '" + pending[i].name + "'");
    }
  }
  std::vector<std::vector<std::size_t>> dependents(pending.size());
  std::vector<std::size_t> unresolved(pending.size(), 0);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    for (const std::string& fn : pending[i].fanin_names) {
      if (auto it = pending_by_name.find(fn); it != pending_by_name.end()) {
        dependents[it->second].push_back(i);
        ++unresolved[i];
      } else if (!nl.contains(fn)) {
        fail(pending[i].line_no, "undefined signal '" + fn + "'");
      }
    }
    if (unresolved[i] == 0) ready.push_back(i);
  }
  std::size_t placed = 0;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const PendingGate& pg = pending[ready[head]];
    std::vector<GateId> fanins;
    fanins.reserve(pg.fanin_names.size());
    for (const std::string& fn : pg.fanin_names) fanins.push_back(nl.find(fn));
    try {
      nl.add_gate(pg.name, pg.type, std::move(fanins));
    } catch (const NetlistError& e) {
      fail(pg.line_no, e.what());
    }
    ++placed;
    for (std::size_t dep : dependents[ready[head]]) {
      if (--unresolved[dep] == 0) ready.push_back(dep);
    }
  }
  if (placed != pending.size()) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!nl.contains(pending[i].name)) {
        fail(pending[i].line_no, "combinational loop involving '" + pending[i].name + "'");
      }
    }
  }

  for (const auto& [oname, oline] : output_names) {
    const GateId o = nl.find(oname);
    if (o == kNullGate) fail(oline, "OUTPUT names undefined signal '" + oname + "'");
    nl.mark_output(o);
  }
  nl.validate();
  return nl;
}

}  // namespace oracle

// Everything a parse produces, as one comparable string: the netlist's
// name, inputs, outputs and every gate, or the exception's type and text.
template <typename Parse>
std::string parse_outcome(Parse parse, std::string_view text) {
  try {
    const Netlist nl = parse(text, "diff");
    std::string out = nl.name() + "\ninputs:";
    for (GateId i : nl.inputs()) out += " " + std::to_string(i);
    out += "\noutputs:";
    for (GateId o : nl.outputs()) out += " " + std::to_string(o);
    out += '\n';
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const Gate g = nl.gate(id);
      out += g.name;
      out += ' ';
      out += to_string(g.type);
      for (GateId f : g.fanins) out += " " + std::to_string(f);
      out += '\n';
    }
    return out;
  } catch (const std::exception& e) {
    return std::string("throw ") + typeid(e).name() + ": " + e.what();
  }
}

std::vector<std::string> differential_bases() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MUXLINK_TEST_CORPUS)) {
    if (entry.path().extension() == ".bench") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> bases;
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    bases.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // The shapes a warm served job parses: c432 K=32 and c880 K=64, dmux and
  // symmetric.
  for (const auto& [circuit, key_bits] : {std::pair{"c432", 32}, std::pair{"c880", 64}}) {
    const Netlist original = circuitgen::make_benchmark(circuit, 1.0);
    for (const char* scheme : {"dmux", "symmetric"}) {
      locking::MuxLockOptions opts;
      opts.key_bits = static_cast<std::size_t>(key_bits);
      opts.seed = 4242;
      bases.push_back(write_bench(locking::resolve_scheme(scheme)(original, opts).netlist));
    }
  }
  return bases;
}

// Byte, dictionary, splice and name-swap mutations, one to four per mutant.
std::string mutate(const std::string& base, const std::vector<std::string>& bases,
                   std::mt19937_64& rng) {
  static const std::string kTokens[] = {
      "INPUT(", "OUTPUT(", "input(", " = ", "=", "(", ")", ",", ", ", "#", "\n", "\r",
      "\r\n", "\xEF\xBB\xBF", std::string(1, '\0'), "\t", "\v", " ", "AND(", "MUX(",
      "NOT(", "CONST0()", "INPUT", "BUFF(", "x = AND(x, x)\n", "\nOUTPUT(ghost)\n"};
  std::string s = base;
  const int rounds = 1 + static_cast<int>(rng() % 4);
  for (int r = 0; r < rounds; ++r) {
    if (s.empty()) s = "\n";
    const std::size_t pos = rng() % s.size();
    switch (rng() % 7) {
      case 0:  // overwrite a byte
        s[pos] = static_cast<char>(rng() & 0xFF);
        break;
      case 1:  // delete a slice
        s.erase(pos, 1 + rng() % 16);
        break;
      case 2:  // insert a dictionary token
        s.insert(pos, kTokens[rng() % std::size(kTokens)]);
        break;
      case 3: {  // copy a slice elsewhere (duplicate definitions, loops)
        const std::string slice = s.substr(pos, 1 + rng() % 48);
        s.insert(rng() % (s.size() + 1), slice);
        break;
      }
      case 4: {  // splice in the tail of another input
        const std::string& other = bases[rng() % bases.size()];
        s = s.substr(0, pos) + other.substr(rng() % other.size());
        break;
      }
      case 5:  // truncate
        s.resize(pos);
        break;
      case 6: {  // overwrite one name with another (loops, undefined signals)
        const auto word = [&](std::size_t at) {
          const auto is_name = [](char c) { return std::isalnum(static_cast<unsigned char>(c)); };
          std::size_t b = at, e = at;
          while (b > 0 && is_name(s[b - 1])) --b;
          while (e < s.size() && is_name(s[e])) ++e;
          return std::pair{b, e - b};
        };
        const auto [from, from_len] = word(rng() % s.size());
        const auto [to, to_len] = word(pos);
        if (from_len > 0 && to_len > 0) s.replace(to, to_len, s.substr(from, from_len));
        break;
      }
    }
  }
  return s;
}

TEST(BenchIO, MatchesThePreviousParserOnCorpusLocksAndMutants) {
  const std::vector<std::string> bases = differential_bases();
  ASSERT_GE(bases.size(), 9u);
  std::size_t parsed = 0, mismatches = 0;
  const auto check = [&](const std::string& text) {
    const std::string want = parse_outcome(oracle::parse_bench, text);
    const std::string got = parse_outcome(parse_bench, text);
    parsed += want.starts_with("throw ") ? 0 : 1;
    if (got != want && ++mismatches <= 3) {
      ADD_FAILURE() << "parsers disagree on input:\n"
                    << text << "\n--- previous parser:\n"
                    << want.substr(0, 400) << "\n--- parse_bench:\n"
                    << got.substr(0, 400);
    }
  };
  for (const std::string& b : bases) check(b);
  EXPECT_EQ(parsed, bases.size());
  std::mt19937_64 rng(20240);
  constexpr int kMutants = 20000;
  std::size_t mutants_parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::size_t before = parsed;
    check(mutate(bases[rng() % bases.size()], bases, rng));
    mutants_parsed += parsed - before;
  }
  EXPECT_EQ(mismatches, 0u);
  // Both outcomes must be exercised, or the comparison proves little.
  EXPECT_GT(mutants_parsed, 500u);
  EXPECT_LT(mutants_parsed, static_cast<std::size_t>(kMutants) - 500);
}

// --- flat storage: allocation bound and differential mutation test ---------

template <typename F>
long allocations_in(F&& f) {
  g_allocations = 0;
  g_counting = true;
  f();
  g_counting = false;
  return g_allocations;
}

// The mechanism behind the flat netlist: parsing, the fanout CSR and the
// graph builder each allocate a fixed number of buffers, the same bound at
// c432 K=32 and at c880 K=64, however many gates they hold. A heap node per
// gate name or fanin list would put the count in the hundreds.
TEST(FlatNetlist, ParseFanoutsAndGraphAllocateABoundNotPerGate) {
  constexpr long kParseBound = 20;
  constexpr long kFanoutBound = 2;
  constexpr long kGraphBound = 6;
  // The first graph build on a thread interns its trace span and gauges;
  // a served job's builds all come after that.
  (void)graph::build_circuit_graph(make_small());
  for (const auto& [circuit, key_bits] : {std::pair{"c432", 32}, std::pair{"c880", 64}}) {
    SCOPED_TRACE(circuit);
    const Netlist original = circuitgen::make_benchmark(circuit, 1.0);
    locking::MuxLockOptions opts;
    opts.key_bits = static_cast<std::size_t>(key_bits);
    opts.seed = 4242;
    const std::string text =
        write_bench(locking::resolve_scheme("dmux")(original, opts).netlist);

    std::optional<Netlist> nl;
    const long parse = allocations_in([&] { nl.emplace(parse_bench(text, circuit)); });
    const long fanouts = allocations_in([&] { (void)nl->fanouts(0); });
    std::vector<GateId> key_muxes;
    for (GateId g = 0; g < nl->num_gates(); ++g) {
      if (nl->gate(g).type == GateType::kMux) key_muxes.push_back(g);
    }
    const long graph =
        allocations_in([&] { (void)graph::build_circuit_graph(*nl, key_muxes); });

    EXPECT_GT(nl->num_gates(), static_cast<std::size_t>(10 * kParseBound));
    EXPECT_LE(parse, kParseBound);
    EXPECT_LE(fanouts, kFanoutBound);
    EXPECT_LE(graph, kGraphBound);
  }
}

// Arguments may be views into the arenas the call appends to: every add,
// rewrite and rename below passes one, and the arenas grow several times
// over the loop (ASan checks that no view is read after its buffer moved).
TEST(FlatNetlist, ViewsOfTheSameNetlistAreSafeArguments) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  GateId last = nl.add_gate("first_gate_tail", GateType::kAnd, {a, b, b, a, b});
  for (int i = 0; i < 300; ++i) {
    const Gate prev = nl.gate(last);
    const std::vector<GateId> want(prev.fanins.begin(), prev.fanins.end());
    last = nl.add_gate("g" + std::to_string(i) + "_tail", GateType::kAnd, prev.fanins);
    nl.rewrite_gate(last, GateType::kOr, nl.gate(last).fanins);
    const std::string_view name = nl.gate(last).name;
    nl.rename_gate(last, name.substr(0, name.find('_')));
    ASSERT_EQ(std::vector<GateId>(nl.gate(last).fanins.begin(), nl.gate(last).fanins.end()), want);
    ASSERT_EQ(nl.gate(last).name, "g" + std::to_string(i));
  }
  EXPECT_NO_THROW(nl.validate());
}

// One random mutation, applied identically to the netlist and the model.
// Each returns "ok" plus what the call returned, or "throw" plus the text.
struct Mutation {
  enum class Kind { kAdd, kReplaceFanin, kRewrite, kRename, kMarkOutput, kUnmarkOutput, kRemove };
  Kind kind;
  GateId id = 0;
  GateType type = GateType::kBuf;
  std::string name;
  std::vector<GateId> fanins;
  std::size_t port = 0;
  std::vector<bool> dead;
};

Mutation random_mutation(const NetlistModel& model, std::mt19937_64& rng, int& fresh) {
  const auto n = static_cast<GateId>(model.num_gates());
  const auto pick = [&](std::size_t k) { return static_cast<std::size_t>(rng() % k); };
  // Mostly valid ids, sometimes one past the end or far out.
  const auto any_id = [&] {
    const std::size_t r = pick(20);
    return r == 0 ? n + static_cast<GateId>(pick(3)) : n == 0 ? 0 : static_cast<GateId>(pick(n));
  };
  // Fresh names of 1 to 40 characters, existing names, and the empty name.
  const auto any_name = [&] {
    const std::size_t r = pick(12);
    if (r == 0) return std::string();
    if (r == 1 && n > 0) return model.name(static_cast<GateId>(pick(n)));
    std::string s = "g" + std::to_string(fresh++);
    s.append(pick(3) == 0 ? pick(36) : 0, 'x');
    return s;
  };
  const auto any_fanins = [&](GateType type) {
    std::size_t count = std::max(min_fanin(type), 0);
    if (max_fanin(type) < 0) count += pick(10);  // up to 11 for the symmetric types
    if (pick(15) == 0) count += 1;                // arity error
    std::vector<GateId> f(count);
    for (GateId& id : f) id = any_id();
    if (count >= 2 && pick(4) == 0) f[1] = f[0];  // duplicate fanin
    return f;
  };
  const auto any_type = [&] {
    // Inputs are common enough to keep the netlist growing.
    return pick(4) == 0 ? GateType::kInput : static_cast<GateType>(pick(kNumGateTypes));
  };

  Mutation m{static_cast<Mutation::Kind>(pick(7))};
  if (n < 4) m.kind = Mutation::Kind::kAdd;
  switch (m.kind) {
    case Mutation::Kind::kAdd:
      m.name = any_name();
      m.type = any_type();
      m.fanins = any_fanins(m.type);
      break;
    case Mutation::Kind::kReplaceFanin:
      m.id = any_id();
      m.port = pick(4);
      m.fanins = {any_id()};
      break;
    case Mutation::Kind::kRewrite:
      m.id = any_id();
      m.type = any_type();
      m.fanins = any_fanins(m.type);
      break;
    case Mutation::Kind::kRename:
      m.id = any_id();
      m.name = any_name();
      break;
    case Mutation::Kind::kMarkOutput:
    case Mutation::Kind::kUnmarkOutput:
      m.id = any_id();
      break;
    case Mutation::Kind::kRemove:
      // Half the masks kill sinks that are no PO (a valid removal), half
      // are random (mostly refused).
      m.dead.assign(n + (pick(20) == 0 ? 1 : 0), false);
      for (GateId g = 0; g < m.dead.size() && g < n; ++g) {
        m.dead[g] = pick(2) == 0 ? pick(8) == 0
                                 : model.fanouts(g).empty() && !model.is_output(g) && pick(2) == 0;
      }
      break;
  }
  return m;
}

template <typename Netlistish>
std::string apply(Netlistish& nl, const Mutation& m) {
  try {
    std::string out = "ok";
    switch (m.kind) {
      case Mutation::Kind::kAdd:
        out += " " + std::to_string(nl.add_gate(m.name, m.type, m.fanins));
        break;
      case Mutation::Kind::kReplaceFanin:
        nl.replace_fanin(m.id, m.port, m.fanins[0]);
        break;
      case Mutation::Kind::kRewrite:
        nl.rewrite_gate(m.id, m.type, m.fanins);
        break;
      case Mutation::Kind::kRename:
        nl.rename_gate(m.id, m.name);
        break;
      case Mutation::Kind::kMarkOutput:
        nl.mark_output(m.id);
        break;
      case Mutation::Kind::kUnmarkOutput:
        nl.unmark_output(m.id);
        break;
      case Mutation::Kind::kRemove:
        for (GateId r : nl.remove_gates(m.dead)) out += " " + std::to_string(r);
        break;
    }
    return out;
  } catch (const NetlistError& e) {
    return std::string("throw ") + e.what();
  }
}

template <typename Netlistish>
std::string bench_or_error(const Netlistish& nl) {
  try {
    if constexpr (std::is_same_v<Netlistish, Netlist>) {
      return write_bench(nl);
    } else {
      return nl.write_bench();
    }
  } catch (const NetlistError& e) {
    return std::string("throw ") + e.what();
  }
}

// Everything observable must agree: names, types, fanins, the name index,
// fanouts in order, PO flags and lists, validate() and the BENCH bytes.
void expect_same(const Netlist& nl, const NetlistModel& model, std::mt19937_64& rng) {
  ASSERT_EQ(nl.num_gates(), model.num_gates());
  EXPECT_EQ(nl.inputs(), model.inputs());
  EXPECT_EQ(nl.outputs(), model.outputs());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate gate = nl.gate(g);
    ASSERT_EQ(gate.name, model.name(g));
    ASSERT_EQ(gate.type, model.type(g));
    ASSERT_EQ(std::vector<GateId>(gate.fanins.begin(), gate.fanins.end()), model.fanins(g));
    ASSERT_EQ(nl.find(gate.name), g);
    const auto fo = nl.fanouts(g);
    ASSERT_EQ(std::vector<Netlist::FanoutRef>(fo.begin(), fo.end()), model.fanouts(g));
    ASSERT_EQ(nl.fanout_gate_count(g), model.fanout_gate_count(g));
    ASSERT_EQ(nl.is_output(g), model.is_output(g));
  }
  const std::string absent = "absent" + std::to_string(rng() % 1000);
  EXPECT_EQ(nl.find(absent), model.find(absent));
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(bench_or_error(nl), bench_or_error(model));
}

TEST(FlatNetlist, RandomMutationsMatchTheReferenceModel) {
  std::mt19937_64 rng(2024);
  std::size_t accepted = 0, refused = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Netlist nl("model");
    NetlistModel model("model");
    int fresh = 0;
    for (int step = 0; step < 150; ++step) {
      const Mutation m = random_mutation(model, rng, fresh);
      const std::string want = apply(model, m);
      ASSERT_EQ(apply(nl, m), want) << "trial " << trial << " step " << step;
      (want.starts_with("ok") ? accepted : refused) += 1;
      // A copy is a deep copy: mutating it leaves the original alone.
      if (step % 50 == 49) {
        Netlist copy = nl;
        if (copy.num_gates() > 0) copy.rename_gate(0, "copy_only_name");
        EXPECT_EQ(nl.find("copy_only_name"), kNullGate);
      }
      expect_same(nl, model, rng);
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes must be exercised, or the comparison proves little.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(refused, 300u);
}

}  // namespace
}  // namespace muxlink::netlist
