// Determinism contract of the parallel pipeline: training, the full MuxLink
// attack, Hamming distance, and the rank-sum AUC must produce bit-identical
// results at 1, 2, and 8 threads — and the attack's training must actually
// run on the pool while doing so.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "circuitgen/generator.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gnn/encoding.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "sim/simulator.h"

namespace muxlink {
namespace {

netlist::Netlist small_circuit(std::uint64_t seed, std::size_t gates) {
  circuitgen::CircuitSpec spec;
  spec.seed = seed;
  spec.num_gates = gates;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  return circuitgen::generate(spec);
}

std::vector<gnn::GraphSample> link_dataset(const graph::CircuitGraph& g, std::size_t max_links) {
  const auto links = graph::sample_links(g, {}, {.max_links = max_links, .seed = 3});
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  std::vector<gnn::GraphSample> data;
  for (const auto& ls : links) {
    const auto sg = graph::extract_enclosing_subgraph(g, ls.link, sopts);
    data.push_back(gnn::encode_subgraph(sg, sopts.hops, ls.positive ? 1 : 0));
  }
  return data;
}

struct TrainRun {
  gnn::TrainReport report;
  std::vector<double> predictions;
};

TrainRun train_at(std::size_t threads, const std::vector<gnn::GraphSample>& data) {
  common::set_num_threads(threads);
  gnn::DgcnnConfig cfg;
  cfg.conv_channels = {8, 8, 1};
  cfg.conv1d_channels1 = 4;
  cfg.conv1d_channels2 = 6;
  cfg.conv1d_kernel2 = 3;
  cfg.dense_units = 16;
  cfg.dropout = 0.5;  // exercises the per-sample dropout seeding
  cfg.sortpool_k = 10;
  cfg.learning_rate = 1e-3;
  cfg.seed = 11;
  gnn::Dgcnn model(gnn::feature_dim_for_hops(2), cfg);
  gnn::TrainOptions topts;
  topts.epochs = 8;
  topts.batch_size = 10;  // not a multiple of the 4-sample grad chunk
  topts.seed = 2;
  TrainRun run;
  run.report = gnn::train_link_predictor(model, data, topts);
  for (const auto& s : data) run.predictions.push_back(model.predict(s));
  return run;
}

TEST(ParallelDeterminism, TrainerBitIdenticalAcrossThreadCounts) {
  const auto nl = small_circuit(4, 150);
  const auto g = graph::build_circuit_graph(nl);
  const auto data = link_dataset(g, 80);
  ASSERT_GT(data.size(), 20u);

  const TrainRun t1 = train_at(1, data);
  const TrainRun t2 = train_at(2, data);
  const TrainRun t8 = train_at(8, data);
  common::set_num_threads(0);

  for (const TrainRun* other : {&t2, &t8}) {
    EXPECT_EQ(t1.report.best_epoch, other->report.best_epoch);
    EXPECT_EQ(t1.report.best_val_accuracy, other->report.best_val_accuracy);
    EXPECT_EQ(t1.report.final_train_loss, other->report.final_train_loss);
    ASSERT_EQ(t1.predictions.size(), other->predictions.size());
    for (std::size_t i = 0; i < t1.predictions.size(); ++i) {
      ASSERT_EQ(t1.predictions[i], other->predictions[i]) << "prediction " << i;
    }
  }
}

core::MuxLinkResult attack_at(std::size_t threads, const netlist::Netlist& locked) {
  common::set_num_threads(threads);
  core::MuxLinkOptions opts;
  opts.epochs = 6;
  opts.learning_rate = 1e-3;
  opts.max_train_links = 300;
  opts.seed = 3;
  core::MuxLinkAttack attack(opts);
  return attack.run(locked);
}

TEST(ParallelDeterminism, AttackBitIdenticalAcrossThreadCounts) {
  const auto nl = small_circuit(7, 200);
  locking::MuxLockOptions lo;
  lo.key_bits = 8;
  lo.seed = 11;
  const auto d = locking::lock_dmux(nl, lo);

  const auto r1 = attack_at(1, d.netlist);
  const auto r2 = attack_at(2, d.netlist);
  const auto r8 = attack_at(8, d.netlist);
  common::set_num_threads(0);

  for (const core::MuxLinkResult* other : {&r2, &r8}) {
    EXPECT_EQ(r1.key, other->key);
    EXPECT_EQ(r1.training.best_epoch, other->training.best_epoch);
    EXPECT_EQ(r1.training.best_val_accuracy, other->training.best_val_accuracy);
    EXPECT_EQ(r1.training.final_train_loss, other->training.final_train_loss);
    ASSERT_EQ(r1.likelihoods.size(), other->likelihoods.size());
    for (std::size_t i = 0; i < r1.likelihoods.size(); ++i) {
      ASSERT_EQ(r1.likelihoods[i].score_a, other->likelihoods[i].score_a) << "mux " << i;
      ASSERT_EQ(r1.likelihoods[i].score_b, other->likelihoods[i].score_b) << "mux " << i;
    }
  }
}

// The mechanism behind the speed the identity tests cannot see: with the
// default ensemble of one, the engine's one-chunk ensemble loop must not stop
// the trainer's per-batch loops from using the pool. Every batch of more than
// one gradient chunk is a parallel region, and so is each epoch's validation
// pass, so parallel regions outnumber training batches only if the batch
// loops ran on the pool.
TEST(ParallelDeterminism, EnsembleOfOneTrainsOnThePool) {
  if (!common::metrics_enabled()) GTEST_SKIP() << "metrics disabled";
  const auto nl = small_circuit(7, 200);
  locking::MuxLockOptions lo;
  lo.key_bits = 8;
  lo.seed = 11;
  const auto d = locking::lock_dmux(nl, lo);

  common::MetricsRegistry::instance().reset();
  attack_at(4, d.netlist);
  common::set_num_threads(0);
  const auto counters = common::MetricsRegistry::instance().snapshot().counters;
  const auto count = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::int64_t{0} : it->second;
  };
  ASSERT_GT(count("gnn.train.batches"), 0);
  EXPECT_GT(count("pool.regions_parallel"), count("gnn.train.batches"));
}

TEST(ParallelDeterminism, EnsembleBitIdenticalAcrossThreadCounts) {
  const auto nl = small_circuit(9, 180);
  locking::MuxLockOptions lo;
  lo.key_bits = 6;
  const auto d = locking::lock_dmux(nl, lo);

  core::MuxLinkOptions opts;
  opts.epochs = 4;
  opts.learning_rate = 1e-3;
  opts.max_train_links = 200;
  opts.seed = 5;
  opts.ensemble = 3;

  common::set_num_threads(1);
  const auto r1 = core::MuxLinkAttack(opts).run(d.netlist);
  common::set_num_threads(8);
  const auto r8 = core::MuxLinkAttack(opts).run(d.netlist);
  common::set_num_threads(0);

  EXPECT_EQ(r1.key, r8.key);
  for (std::size_t i = 0; i < r1.likelihoods.size(); ++i) {
    ASSERT_EQ(r1.likelihoods[i].score_a, r8.likelihoods[i].score_a);
    ASSERT_EQ(r1.likelihoods[i].score_b, r8.likelihoods[i].score_b);
  }
}

TEST(ParallelDeterminism, HammingDistanceIdenticalAcrossThreadCounts) {
  const auto a = small_circuit(13, 160);
  locking::MuxLockOptions lo;
  lo.key_bits = 4;
  const auto d = locking::lock_dmux(a, lo);

  sim::HammingOptions hopts;
  hopts.num_patterns = 4096;
  common::set_num_threads(1);
  const double hd1 = sim::hamming_distance_percent(a, d.netlist, hopts);
  common::set_num_threads(8);
  const double hd8 = sim::hamming_distance_percent(a, d.netlist, hopts);
  common::set_num_threads(0);
  EXPECT_EQ(hd1, hd8);
}

}  // namespace
}  // namespace muxlink
