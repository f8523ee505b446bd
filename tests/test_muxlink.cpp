// End-to-end tests for the MuxLink attack pipeline: tracing, training,
// likelihood scoring, Algorithm-1 post-processing, threshold semantics, and
// design recovery. GNN settings are scaled down to keep the suite fast; the
// full paper protocol lives in the bench harnesses.
#include <gtest/gtest.h>

#include "attacks/metrics.h"
#include "circuitgen/generator.h"
#include "circuitgen/suites.h"
#include "common/metrics.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "netlist/analysis.h"
#include "sim/simulator.h"

namespace muxlink::core {
namespace {

using attacks::score_key;
using locking::KeyBit;
using locking::LockedDesign;
using locking::MuxLockOptions;
using netlist::Netlist;

Netlist test_circuit(std::uint64_t seed = 1, std::size_t gates = 220) {
  circuitgen::CircuitSpec spec;
  spec.seed = seed;
  spec.num_gates = gates;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  return circuitgen::generate(spec);
}

MuxLinkOptions fast_options() {
  MuxLinkOptions opts;
  opts.epochs = 30;
  opts.learning_rate = 1e-3;
  opts.max_train_links = 600;
  opts.seed = 3;
  return opts;
}

// Shared fixture: one trained attack reused by several assertions (training
// is the expensive part).
class MuxLinkPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    original_ = new Netlist(test_circuit(7));
    MuxLockOptions lo;
    lo.key_bits = 16;
    lo.seed = 11;
    design_ = new LockedDesign(locking::lock_dmux(*original_, lo));
    attack_ = new MuxLinkAttack(fast_options());
    result_ = new MuxLinkResult(attack_->run(design_->netlist));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete attack_;
    delete design_;
    delete original_;
    result_ = nullptr;
    attack_ = nullptr;
    design_ = nullptr;
    original_ = nullptr;
  }

  static Netlist* original_;
  static LockedDesign* design_;
  static MuxLinkAttack* attack_;
  static MuxLinkResult* result_;
};

Netlist* MuxLinkPipeline::original_ = nullptr;
LockedDesign* MuxLinkPipeline::design_ = nullptr;
MuxLinkAttack* MuxLinkPipeline::attack_ = nullptr;
MuxLinkResult* MuxLinkPipeline::result_ = nullptr;

TEST_F(MuxLinkPipeline, ProducesOneBitPerKeyInput) {
  EXPECT_EQ(result_->key.size(), design_->key.size());
  EXPECT_EQ(result_->likelihoods.size(), design_->key_gates.size());
  EXPECT_EQ(result_->target_links, 2 * design_->key_gates.size());
  EXPECT_GT(result_->training_links, 100u);
  EXPECT_GE(result_->sortpool_k, 10);
  EXPECT_GT(result_->total_seconds, 0.0);
}

TEST_F(MuxLinkPipeline, BeatsRandomGuessingClearly) {
  const auto s = score_key(design_->key, result_->key);
  // The paper reports ~95% on real ISCAS-85; the scaled-down protocol on a
  // small synthetic circuit must still clearly beat the 50% coin-flip that
  // SWEEP/SCOPE/SAAM are stuck at (they decide nothing here).
  EXPECT_GT(s.accuracy_percent(), 60.0);
  EXPECT_GT(s.kpa_percent(), 60.0);
}

TEST_F(MuxLinkPipeline, LikelihoodsAreProbabilities) {
  for (const auto& ml : result_->likelihoods) {
    EXPECT_GE(ml.score_a, 0.0);
    EXPECT_LE(ml.score_a, 1.0);
    EXPECT_GE(ml.score_b, 0.0);
    EXPECT_LE(ml.score_b, 1.0);
  }
}

TEST_F(MuxLinkPipeline, PostProcessMatchesRunThreshold) {
  const auto key = attack_->post_process(attack_->options().threshold);
  EXPECT_EQ(key, result_->key);
}

TEST_F(MuxLinkPipeline, ThresholdOneWithholdsEverything) {
  // th = 1 demands a likelihood gap of a full unit: nothing qualifies
  // (paper Fig. 9: PC -> 100%, decision rate -> small).
  const auto key = attack_->post_process(1.0 + 1e-12);
  for (KeyBit b : key) EXPECT_EQ(b, KeyBit::kUnknown);
  const auto s = score_key(design_->key, key);
  EXPECT_DOUBLE_EQ(s.precision_percent(), 100.0);
}

TEST_F(MuxLinkPipeline, ThresholdZeroDecidesEverything) {
  const auto key = attack_->post_process(0.0);
  std::size_t undecided = 0;
  for (KeyBit b : key) undecided += b == KeyBit::kUnknown ? 1 : 0;
  // δ = 0 exactly is the only way to stay undecided at th = 0.
  EXPECT_LE(undecided, 1u);
}

TEST_F(MuxLinkPipeline, DecisionRateFallsMonotonicallyWithThreshold) {
  std::size_t prev = result_->key.size() + 1;
  for (double th : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto key = attack_->post_process(th);
    std::size_t decided = 0;
    for (KeyBit b : key) decided += b != KeyBit::kUnknown ? 1 : 0;
    EXPECT_LE(decided, prev);
    prev = decided;
  }
}

TEST_F(MuxLinkPipeline, RecoverDesignWithCorrectKeyMatchesOriginal) {
  std::vector<KeyBit> truth;
  for (std::uint8_t b : design_->key) truth.push_back(locking::key_bit_from_bool(b != 0));
  const Netlist recovered = recover_design(design_->netlist, truth);
  EXPECT_TRUE(sim::functionally_equivalent(*original_, recovered, {.num_patterns = 2048}));
  // All key logic folded away.
  const auto stats = netlist::compute_stats(recovered);
  EXPECT_EQ(stats.count_by_type[static_cast<int>(netlist::GateType::kMux)], 0u);
}

TEST_F(MuxLinkPipeline, RecoverDesignKeepsUnknownBitsAsInputs) {
  auto key = result_->key;
  key[2] = KeyBit::kUnknown;
  const Netlist recovered = recover_design(design_->netlist, key);
  EXPECT_TRUE(recovered.contains("keyinput2"));
}

TEST_F(MuxLinkPipeline, RecoverDesignRejectsWrongKeySize) {
  EXPECT_THROW(recover_design(design_->netlist, std::vector<KeyBit>(3)), std::invalid_argument);
}

// --- standalone behaviours -------------------------------------------------------

TEST(MuxLinkAttackTest, ThrowsWithoutKeyMuxes) {
  const Netlist nl = test_circuit(9);
  MuxLinkAttack attack(fast_options());
  EXPECT_THROW(attack.run(nl), netlist::NetlistError);
}

TEST(MuxLinkAttackTest, PostProcessBeforeRunThrows) {
  MuxLinkAttack attack(fast_options());
  EXPECT_THROW(attack.post_process(0.01), std::logic_error);
}

TEST(MuxLinkAttackTest, DeterministicForFixedSeed) {
  const Netlist nl = test_circuit(13, 180);
  MuxLockOptions lo;
  lo.key_bits = 8;
  const LockedDesign d = locking::lock_dmux(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.epochs = 10;
  MuxLinkAttack a1(opts), a2(opts);
  const auto r1 = a1.run(d.netlist);
  const auto r2 = a2.run(d.netlist);
  EXPECT_EQ(r1.key, r2.key);
  for (std::size_t i = 0; i < r1.likelihoods.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.likelihoods[i].score_a, r2.likelihoods[i].score_a);
  }
}

TEST(MuxLinkAttackTest, BreaksSymmetricLockingAboveChance) {
  // Slightly larger circuit: on ~200-gate designs the random decoys sit too
  // close to their sinks to separate reliably (the paper sees the same size
  // trend in Fig. 7).
  const Netlist nl = test_circuit(17, 350);
  MuxLockOptions lo;
  lo.key_bits = 16;
  lo.seed = 5;
  const LockedDesign d = locking::lock_symmetric(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.epochs = 40;
  opts.max_train_links = 900;
  MuxLinkAttack attack(opts);
  const auto result = attack.run(d.netlist);
  const auto s = score_key(d.key, result.key);
  EXPECT_GT(s.accuracy_percent(), 65.0);
}

TEST(MuxLinkAttackTest, PairedBitsRouteDistinctDrivers) {
  // Algorithm 1 contract on S5: when both bits of a paired locality are
  // decided, the two MUXes must route different wires of the shared pair.
  const Netlist nl = test_circuit(19);
  MuxLockOptions lo;
  lo.key_bits = 12;
  const LockedDesign d = locking::lock_symmetric(nl, lo);
  MuxLinkAttack attack(fast_options());
  const auto result = attack.run(d.netlist);
  for (const auto& loc : result.localities) {
    if (loc.kind != attacks::TracedLocality::Kind::kPaired) continue;
    const auto& m1 = result.likelihoods[loc.muxes[0]];
    const auto& m2 = result.likelihoods[loc.muxes[1]];
    const KeyBit b1 = result.key[m1.mux.key_bit];
    const KeyBit b2 = result.key[m2.mux.key_bit];
    if (b1 == KeyBit::kUnknown || b2 == KeyBit::kUnknown) continue;
    const auto routed1 = b1 == KeyBit::kZero ? m1.mux.input_a : m1.mux.input_b;
    const auto routed2 = b2 == KeyBit::kZero ? m2.mux.input_a : m2.mux.input_b;
    EXPECT_NE(routed1, routed2);
  }
}

TEST(MuxLinkAttackTest, EnsembleAveragesLikelihoods) {
  const Netlist nl = test_circuit(31, 180);
  MuxLockOptions lo;
  lo.key_bits = 8;
  const LockedDesign d = locking::lock_dmux(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.epochs = 6;
  opts.ensemble = 2;
  MuxLinkAttack attack(opts);
  const auto r2 = attack.run(d.netlist);
  EXPECT_EQ(r2.key.size(), 8u);
  for (const auto& ml : r2.likelihoods) {
    EXPECT_GE(ml.score_a, 0.0);
    EXPECT_LE(ml.score_a, 1.0);
  }
  // Deterministic for a fixed seed, and distinct from the single model.
  MuxLinkAttack again(opts);
  EXPECT_EQ(again.run(d.netlist).key, r2.key);
  opts.ensemble = 1;
  MuxLinkAttack single(opts);
  const auto r1 = single.run(d.netlist);
  bool any_diff = false;
  for (std::size_t i = 0; i < r1.likelihoods.size(); ++i) {
    any_diff = any_diff || r1.likelihoods[i].score_a != r2.likelihoods[i].score_a;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MuxLinkAttackTest, HonorsSubgraphSizeCap) {
  const Netlist nl = test_circuit(23, 180);
  MuxLockOptions lo;
  lo.key_bits = 8;
  const LockedDesign d = locking::lock_dmux(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.epochs = 5;
  opts.max_subgraph_nodes = 16;
  MuxLinkAttack attack(opts);
  EXPECT_NO_THROW(attack.run(d.netlist));
}

TEST(MuxLinkAttackTest, OneHopStillLearnsSomething) {
  // Paper Fig. 10: even h = 1 deciphers connections with decent accuracy —
  // the fundamental leak of MUX-based locking.
  const Netlist nl = test_circuit(29);
  MuxLockOptions lo;
  lo.key_bits = 16;
  const LockedDesign d = locking::lock_dmux(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.hops = 1;
  MuxLinkAttack attack(opts);
  const auto result = attack.run(d.netlist);
  const auto s = score_key(d.key, result.key);
  EXPECT_GT(s.accuracy_percent(), 50.0);
}

// The training set keeps its binary node features as column lists: a c880
// dmux attack's `attack.train_set_bytes` gauge (observability only) stays
// within 64 B per subgraph node, where the dense 46-wide X alone took 384 B.
TEST(MuxLinkAttackTest, TrainSetHoldsAtMost64BytesPerSubgraphNode) {
  if (!common::metrics_enabled()) GTEST_SKIP() << "metrics disabled";
  const Netlist nl = circuitgen::make_benchmark("c880");
  MuxLockOptions lo;
  lo.key_bits = 32;
  const LockedDesign d = locking::lock_dmux(nl, lo);
  MuxLinkOptions opts = fast_options();
  opts.epochs = 1;
  opts.max_train_links = 800;
  common::MetricsRegistry::instance().reset();
  MuxLinkAttack attack(opts);
  attack.run(d.netlist);
  const common::MetricsSnapshot snap = common::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.gauges.count("attack.train_set_bytes"));
  ASSERT_TRUE(snap.gauges.count("attack.train_set_nodes"));
  const double bytes = snap.gauges.at("attack.train_set_bytes");
  const double nodes = snap.gauges.at("attack.train_set_nodes");
  EXPECT_GT(nodes, 800.0);
  EXPECT_LE(bytes, 64.0 * nodes) << bytes / nodes << " B per node";
}

}  // namespace
}  // namespace muxlink::core
