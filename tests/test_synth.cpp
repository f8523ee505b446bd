// Tests for the light synthesis engine (constant propagation, sweeping, dead
// logic removal) and the feature extractor.
#include <gtest/gtest.h>

#include "circuitgen/generator.h"
#include "netlist/analysis.h"
#include "netlist/bench_io.h"
#include "sim/simulator.h"
#include "synth/features.h"
#include "synth/synthesis.h"

namespace muxlink::synth {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::parse_bench;

std::size_t type_count(const Netlist& nl, GateType t) {
  return netlist::compute_stats(nl).count_by_type[static_cast<int>(t)];
}

// --- cleanup: constant folding ------------------------------------------------

TEST(Cleanup, FoldsDominantConstants) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
zero = CONST0()
t = AND(a, zero)
y = OR(t, b)
)");
  const Netlist clean = cleanup(nl);
  // AND(a,0)=0; OR(0,b)=b; y is a buffer of b (kept to preserve the name).
  EXPECT_EQ(type_count(clean, GateType::kAnd), 0u);
  EXPECT_EQ(type_count(clean, GateType::kOr), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 256}));
}

TEST(Cleanup, FoldsNeutralConstants) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
one = CONST1()
y = AND(a, b, one)
)");
  const Netlist clean = cleanup(nl);
  const auto y = clean.find("y");
  ASSERT_NE(y, netlist::kNullGate);
  EXPECT_EQ(clean.gate(y).type, GateType::kAnd);
  EXPECT_EQ(clean.gate(y).fanins.size(), 2u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 256}));
}

TEST(Cleanup, CollapsesFullyConstantCone) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
one = CONST1()
zero = CONST0()
t = NAND(one, zero)
y = XOR(t, one)
)");
  const Netlist clean = cleanup(nl);
  const auto y = clean.find("y");
  // NAND(1,0)=1; XOR(1,1)=0.
  EXPECT_EQ(clean.gate(y).type, GateType::kConst0);
}

TEST(Cleanup, SimplifiesNandToNot) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
one = CONST1()
y = NAND(a, one)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(clean.gate(clean.find("y")).type, GateType::kNot);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, XorParityAbsorption) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
zero = CONST0()
y = XOR(a, one, zero)
z = XNOR(a, b, one)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(clean.gate(clean.find("y")).type, GateType::kNot);   // XOR(a,1) = !a
  EXPECT_EQ(clean.gate(clean.find("z")).type, GateType::kXor);   // XNOR(a,b,1) = XOR(a,b)
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 256}));
}

TEST(Cleanup, MuxConstantSelect) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
zero = CONST0()
y = MUX(zero, a, b)
z = MUX(one, a, b)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(type_count(clean, GateType::kMux), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 256}));
}

TEST(Cleanup, MuxConstantDataBecomesSelectExpression) {
  const Netlist nl = parse_bench(R"(
INPUT(s)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
zero = CONST0()
y = MUX(s, zero, one)
z = MUX(s, one, zero)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(type_count(clean, GateType::kMux), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, MuxIdenticalBranchesCollapse) {
  const Netlist nl = parse_bench(R"(
INPUT(s)
INPUT(a)
OUTPUT(y)
y = MUX(s, a, a)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(type_count(clean, GateType::kMux), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, DuplicateFaninsDeduplicate) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, a, b)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(clean.gate(clean.find("y")).fanins.size(), 2u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

// --- cleanup: sweeping / dead logic --------------------------------------------

TEST(Cleanup, SweepsBufferChains) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
b1 = BUF(a)
b2 = BUF(b1)
b3 = BUF(b2)
y = NOT(b3)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(type_count(clean, GateType::kBuf), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, CancelsDoubleInverters) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
i1 = NOT(a)
i2 = NOT(i1)
y = AND(i2, b)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(type_count(clean, GateType::kNot), 0u);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, RemovesDeadLogic) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
dead1 = AND(a, b)
dead2 = NOT(dead1)
y = OR(a, b)
)");
  const Netlist clean = cleanup(nl);
  EXPECT_EQ(clean.find("dead1"), netlist::kNullGate);
  EXPECT_EQ(clean.find("dead2"), netlist::kNullGate);
  // PIs always survive.
  EXPECT_EQ(clean.inputs().size(), 2u);
}

TEST(Cleanup, OptionsDisableStages) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
b1 = BUF(a)
dead = NOT(a)
y = BUF(b1)
)");
  CleanupOptions keep_all;
  keep_all.propagate_constants = false;
  keep_all.sweep_buffers = false;
  keep_all.remove_dead_logic = false;
  const Netlist clean = cleanup(nl, keep_all);
  EXPECT_EQ(type_count(clean, GateType::kBuf), 2u);
  EXPECT_NE(clean.find("dead"), netlist::kNullGate);
}

TEST(Cleanup, PreservesPrimaryOutputNames) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
OUTPUT(z)
one = CONST1()
y = AND(a, one)
z = BUF(y)
)");
  const Netlist clean = cleanup(nl);
  ASSERT_NE(clean.find("y"), netlist::kNullGate);
  ASSERT_NE(clean.find("z"), netlist::kNullGate);
  EXPECT_TRUE(clean.is_output(clean.find("y")));
  EXPECT_TRUE(clean.is_output(clean.find("z")));
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

TEST(Cleanup, OutputCollapsingOntoInputIsWrapped) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
y = BUF(a)
)");
  const Netlist clean = cleanup(nl);
  // `y` must still exist and `a` must still be an input named `a`.
  EXPECT_NE(clean.find("y"), netlist::kNullGate);
  EXPECT_EQ(clean.gate(clean.find("a")).type, GateType::kInput);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 128}));
}

// Property: cleanup preserves functionality on random circuits.
class CleanupEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CleanupEquivalence, RandomCircuitsStayEquivalent) {
  circuitgen::CircuitSpec spec;
  spec.seed = GetParam();
  spec.num_gates = 180;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  const Netlist nl = circuitgen::generate(spec);
  const Netlist clean = cleanup(nl);
  EXPECT_TRUE(sim::functionally_equivalent(nl, clean, {.num_patterns = 2048, .seed = GetParam()}));
  // Cleanup never grows the design.
  EXPECT_LE(netlist::compute_stats(clean).num_logic_gates,
            netlist::compute_stats(nl).num_logic_gates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanupEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- hardcode_input -------------------------------------------------------------

TEST(Hardcode, RemovesInputAndSpecializes) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(k)
OUTPUT(y)
y = XOR(a, k)
)");
  const Netlist k0 = hardcode_input(nl, "k", false);
  EXPECT_EQ(k0.inputs().size(), 1u);
  EXPECT_EQ(k0.find("k"), netlist::kNullGate);
  // XOR(a,0) = a: y is a buffer/alias of a.
  const sim::Simulator s(k0);
  const std::array<bool, 1> t{true};
  EXPECT_TRUE(s.run_single(t)[0]);

  const Netlist k1 = hardcode_input(nl, "k", true);
  const sim::Simulator s1(k1);
  EXPECT_FALSE(s1.run_single(t)[0]);
  EXPECT_EQ(type_count(k1, GateType::kNot), 1u);
}

TEST(Hardcode, MatchesSimulationOnRandomCircuit) {
  circuitgen::CircuitSpec spec;
  spec.seed = 5;
  spec.num_gates = 150;
  spec.num_inputs = 9;
  spec.num_outputs = 4;
  const Netlist nl = circuitgen::generate(spec);
  const std::string victim(nl.gate(nl.inputs()[3]).name);
  for (bool v : {false, true}) {
    const Netlist hc = hardcode_input(nl, victim, v);
    EXPECT_EQ(hc.inputs().size(), 8u);
    sim::HammingOptions opts;
    opts.num_patterns = 2048;
    // Compare hc (fewer inputs) against original with the victim pinned.
    opts.extra_inputs_b = {{victim, v}};
    EXPECT_DOUBLE_EQ(hamming_distance_percent(hc, nl, opts), 0.0);
  }
}

TEST(Hardcode, ThrowsOnNonInput) {
  const Netlist nl = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  EXPECT_THROW(hardcode_input(nl, "y", true), netlist::NetlistError);
  EXPECT_THROW(hardcode_input(nl, "ghost", true), netlist::NetlistError);
}

// --- features -------------------------------------------------------------------

TEST(Features, GateAreaOrdering) {
  EXPECT_LT(gate_area(GateType::kNot, 1), gate_area(GateType::kXor, 2));
  EXPECT_LT(gate_area(GateType::kNand, 2), gate_area(GateType::kMux, 3));
  EXPECT_EQ(gate_area(GateType::kInput, 0), 0.0);
  // Wide gates cost more.
  EXPECT_GT(gate_area(GateType::kAnd, 4), gate_area(GateType::kAnd, 2));
}

TEST(Features, SignalProbabilitiesExactOnSmallCones) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(n)
OUTPUT(x)
y = AND(a, b)
n = NOR(a, b)
x = XOR(a, b)
)");
  const auto p = signal_probabilities(nl);
  EXPECT_DOUBLE_EQ(p[nl.find("a")], 0.5);
  EXPECT_DOUBLE_EQ(p[nl.find("y")], 0.25);
  EXPECT_DOUBLE_EQ(p[nl.find("n")], 0.25);
  EXPECT_DOUBLE_EQ(p[nl.find("x")], 0.5);
}

TEST(Features, ConstantsPinProbabilities) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
one = CONST1()
y = AND(a, one)
)");
  const auto p = signal_probabilities(nl);
  EXPECT_DOUBLE_EQ(p[nl.find("one")], 1.0);
  EXPECT_DOUBLE_EQ(p[nl.find("y")], 0.5);
}

TEST(Features, ExtractCountsAreaPowerDepth) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
t = NAND(a, b)
y = XOR(t, a)
)");
  const Features f = extract_features(nl);
  EXPECT_EQ(f.num_logic_gates, 2u);
  EXPECT_EQ(f.count_by_type[static_cast<int>(GateType::kNand)], 1u);
  EXPECT_EQ(f.count_by_type[static_cast<int>(GateType::kXor)], 1u);
  EXPECT_DOUBLE_EQ(f.area, gate_area(GateType::kNand, 2) + gate_area(GateType::kXor, 2));
  EXPECT_EQ(f.depth, 2);
  EXPECT_GT(f.switching_power, 0.0);
  // nets: a (2 sinks), b, t, y(PO).
  EXPECT_EQ(f.num_nets, 4u);
}

TEST(Features, VectorViewIsStable) {
  const Features f;
  EXPECT_EQ(f.to_vector().size(), Features::vector_names().size());
}

TEST(Features, CleanupReducesAreaAfterHardcoding) {
  // Hard-coding a key input through cleanup must not increase area.
  circuitgen::CircuitSpec spec;
  spec.seed = 17;
  spec.num_gates = 200;
  const Netlist nl = circuitgen::generate(spec);
  const Features before = extract_features(nl);
  const std::string victim(nl.gate(nl.inputs()[0]).name);
  const Features after = extract_features(hardcode_input(nl, victim, true));
  EXPECT_LE(after.area, before.area);
}

}  // namespace
}  // namespace muxlink::synth
