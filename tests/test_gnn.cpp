// Tests for the from-scratch DGCNN: matrix kernels, encoding, forward
// determinism, finite-difference gradient checks over EVERY parameter
// tensor, the layer-major slot path against a per-sample reference, Adam
// convergence, and the trainer's checkpointing contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>

#include "circuitgen/generator.h"
#include "common/cpu_features.h"
#include "common/metrics.h"
#include "gnn/dgcnn.h"
#include "gnn/encoding.h"
#include "gnn/matrix.h"
#include "gnn/simd.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "support/graph_sample.h"

namespace muxlink::gnn {
namespace {

// --- matrix kernels -----------------------------------------------------------

// Fills logical elements row-major (the padded storage makes flat
// data-assignment shape-dependent; see matrix.h).
void fill(Matrix& m, std::initializer_list<double> values) {
  ASSERT_EQ(values.size(), static_cast<std::size_t>(m.rows) * m.cols);
  auto it = values.begin();
  for (int i = 0; i < m.rows; ++i) {
    for (int j = 0; j < m.cols; ++j) m.at(i, j) = *it++;
  }
}

TEST(MatrixKernels, Matmul) {
  Matrix a(2, 3), b(3, 2), out;
  fill(a, {1, 2, 3, 4, 5, 6});
  fill(b, {7, 8, 9, 10, 11, 12});
  matmul(a, b, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 154.0);
}

TEST(MatrixKernels, MatmulAtBAccumulates) {
  Matrix a(2, 2), b(2, 2), out(2, 2);
  fill(a, {1, 2, 3, 4});
  fill(b, {5, 6, 7, 8});
  fill(out, {1, 0, 0, 1});
  matmul_at_b_accum(a, b, out);
  // a^T b = [[26,30],[38,44]]; plus identity.
  EXPECT_DOUBLE_EQ(out.at(0, 0), 27.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 38.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 45.0);
}

TEST(MatrixKernels, MatmulABt) {
  Matrix a(1, 3), b(2, 3), out;
  fill(a, {1, 2, 3});
  fill(b, {4, 5, 6, 7, 8, 9});
  matmul_a_bt(a, b, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 32.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 50.0);
}

TEST(MatrixKernels, GlorotInitBounded) {
  std::mt19937_64 rng(1);
  Matrix m(20, 30);
  m.glorot(rng);
  const double limit = std::sqrt(6.0 / 50.0);
  double mag = 0.0;
  for (double x : m.data) {
    EXPECT_LE(std::abs(x), limit);
    mag += std::abs(x);
  }
  EXPECT_GT(mag, 0.0);
}

// --- encoding -------------------------------------------------------------------

graph::CircuitGraph small_graph(netlist::Netlist& nl_out) {
  circuitgen::CircuitSpec spec;
  spec.seed = 4;
  spec.num_gates = 120;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  nl_out = circuitgen::generate(spec);
  return graph::build_circuit_graph(nl_out);
}

TEST(Encoding, OneHotRowsSumToTwo) {
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto sg = graph::extract_enclosing_subgraph(g, g.all_edges()[0]);
  const GraphSample s = encode_subgraph(sg, 3, 1);
  EXPECT_EQ(s.label, 1);
  ASSERT_EQ(s.num_nodes(), static_cast<int>(sg.num_nodes()));
  ASSERT_EQ(s.feat_offsets.size(), s.nbr_offsets.size());
  for (int i = 0; i < s.num_nodes(); ++i) {
    // One type bit, then one DRNL bit.
    const auto cols = s.features(i);
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_LT(cols[0], graph::kNumTypeFeatures);
    EXPECT_GE(cols[1], graph::kNumTypeFeatures);
    EXPECT_LT(cols[1], feature_dim_for_hops(3));
  }
}

TEST(Encoding, TargetsCarryLabelOneBit) {
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto sg = graph::extract_enclosing_subgraph(g, g.all_edges()[1]);
  const GraphSample s = encode_subgraph(sg, 3, 0);
  EXPECT_EQ(s.features(0)[1], graph::kNumTypeFeatures + 1);
  EXPECT_EQ(s.features(1)[1], graph::kNumTypeFeatures + 1);
}

// --- layer 0 from binary features -----------------------------------------------

// propagate_features is the dense propagate over the densified X in every
// table, bit for bit, with an entry exactly where that matrix is nonzero —
// over samples with empty rows and isolated nodes, and real encoded ones.
TEST(LayerZero, PropagateFeaturesIsTheDensePropagate) {
  std::vector<GraphSample> samples;
  for (int t = 0; t < 6; ++t) samples.push_back(random_khot_sample(3 + 7 * t, 12, 40 + t));
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  samples.push_back(encode_subgraph(graph::extract_enclosing_subgraph(g, g.all_edges()[2]), 3, 1));
  // A hub of degree 9 whose columns 0 and 2 are on at seven and three of
  // its ten members: counts where count / 10 and count · (1 / 10) round
  // apart, so only the product matches the dense kernels.
  GraphSample hub;
  std::vector<std::vector<int>> nbr(10), feat(10);
  for (int i = 0; i < 10; ++i) {
    if (i > 0) {
      nbr[0].push_back(i);
      nbr[i].push_back(0);
    }
    feat[i] = {1 + i % 3};
    if (i < 7) feat[i].insert(feat[i].begin(), 0);
  }
  set_adjacency(hub, nbr);
  set_features(hub, feat);
  samples.push_back(hub);
  std::vector<const KernelTable*> tables{&scalar_kernels()};
  if (avx2_kernels() != nullptr) tables.push_back(avx2_kernels());
  const int dim = feature_dim_for_hops(3);  // covers the random samples' 12 columns too
  for (const GraphSample& s : samples) {
    const Matrix x = dense_features(s, dim);
    CsrRows u0;
    propagate_features(s, u0);
    ASSERT_EQ(u0.rows(), s.num_nodes());
    Matrix sparse(s.num_nodes(), dim);
    for (int i = 0; i < u0.rows(); ++i) {
      for (int e = u0.offsets[i]; e < u0.offsets[i + 1]; ++e) {
        if (e > u0.offsets[i]) {
          EXPECT_LT(u0.cols[e - 1], u0.cols[e]);
        }
        sparse.at(i, u0.cols[e]) = u0.vals[e];
        EXPECT_NE(u0.vals[e], 0.0);
      }
    }
    for (const KernelTable* t : tables) {
      Matrix dense;
      t->propagate(s, x, dense);
      for (int i = 0; i < dense.rows; ++i) {
        for (int c = 0; c < dim; ++c) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(dense.at(i, c)),
                    std::bit_cast<std::uint64_t>(sparse.at(i, c)))
              << t->isa << " row " << i << " column " << c;
        }
      }
    }
  }
}

// --- sortpooling k ----------------------------------------------------------------

TEST(SortPoolK, PicksSixtiethPercentileWithFloor) {
  EXPECT_EQ(choose_sortpool_k({1, 2, 3}), 10);  // floored
  std::vector<int> sizes;
  for (int i = 1; i <= 100; ++i) sizes.push_back(i);
  EXPECT_EQ(choose_sortpool_k(sizes, 0.6), 61);
  EXPECT_EQ(choose_sortpool_k({}), 10);
}

// --- model ----------------------------------------------------------------------

GraphSample tiny_sample(int label, std::uint64_t seed) {
  // Random small graph with feature dim 12.
  std::mt19937_64 rng(seed);
  const int n = 6 + static_cast<int>(rng() % 5);
  GraphSample g;
  g.label = label;
  std::vector<std::vector<int>> nbr(n);
  for (int i = 1; i < n; ++i) {
    const int j = static_cast<int>(rng() % i);
    nbr[i].push_back(j);
    nbr[j].push_back(i);
  }
  set_adjacency(g, nbr);
  std::vector<std::vector<int>> feat(n);
  for (int i = 0; i < n; ++i) feat[i] = {static_cast<int>(rng() % 12)};
  set_features(g, feat);
  return g;
}

DgcnnConfig tiny_config() {
  DgcnnConfig cfg;
  cfg.conv_channels = {4, 4, 1};
  cfg.conv1d_channels1 = 3;
  cfg.conv1d_channels2 = 4;
  cfg.conv1d_kernel2 = 2;
  cfg.dense_units = 8;
  cfg.dropout = 0.0;  // deterministic for gradient checks
  cfg.sortpool_k = 6;
  cfg.seed = 7;
  return cfg;
}

// Zeroed buffers shaped like `params`.
std::vector<Matrix> zeroed_like(const std::vector<Matrix>& params) {
  std::vector<Matrix> out;
  for (const Matrix& p : params) out.emplace_back(p.rows, p.cols);
  return out;
}

// One Adam step over `batch` the way the trainer takes it: slots of up to
// kSlotSamples through the training entry (sample i's dropout seeded with
// seed + i), merged in order, averaged over the batch.
void train_step(Dgcnn& model, const std::vector<GraphSample>& batch, std::uint64_t seed) {
  std::vector<Dgcnn::SlotGradients> slots;
  for (std::size_t first = 0; first < batch.size(); first += Dgcnn::kSlotSamples) {
    std::vector<const GraphSample*> members;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = first; i < std::min(batch.size(), first + Dgcnn::kSlotSamples); ++i) {
      members.push_back(&batch[i]);
      seeds.push_back(seed + i);
    }
    slots.push_back(model.make_slot_gradients());
    model.accumulate_gradients(members, slots.back(), seeds);
  }
  model.merge_gradients(slots);
  model.adam_step(batch.size());
}

TEST(Dgcnn, ForwardIsDeterministicWithoutDropout) {
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(1, 3);
  const double p1 = model.predict(g);
  const double p2 = model.predict(g);
  EXPECT_DOUBLE_EQ(p1, p2);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, 1.0);
}

TEST(Dgcnn, HandlesGraphsSmallerAndLargerThanK) {
  Dgcnn model(12, tiny_config());
  GraphSample small = tiny_sample(0, 5);
  set_adjacency(small, {{1}, {0, 2}, {1}});
  set_features(small, {{0}, {1}, {2}});
  EXPECT_NO_THROW(model.predict(small));

  GraphSample big = tiny_sample(1, 6);
  // Chain of 30 nodes > k = 6.
  std::vector<std::vector<int>> chain(30);
  for (int i = 1; i < 30; ++i) {
    chain[i].push_back(i - 1);
    chain[i - 1].push_back(i);
  }
  set_adjacency(big, chain);
  std::vector<std::vector<int>> feat(30);
  for (int i = 0; i < 30; ++i) feat[i] = {i % 12};
  set_features(big, feat);
  EXPECT_NO_THROW(model.predict(big));
}

// Feature lists a layer-0 kernel would misread are rejected before any
// work, one test per malformation. First: a column outside the model's
// [0, feature_dim).
TEST(Dgcnn, RejectsFeatureDimMismatch) {
  Dgcnn model(12, tiny_config());
  GraphSample g = tiny_sample(0, 8);
  g.feat[g.feat_offsets[2]] = 12;  // would read past W0's 12 rows
  EXPECT_THROW(model.predict(g), std::invalid_argument);
  g.feat[g.feat_offsets[2]] = -1;
  EXPECT_THROW(model.predict(g), std::invalid_argument);
}

TEST(Dgcnn, RejectsUnsortedOrDuplicateFeatureColumns) {
  Dgcnn model(12, tiny_config());
  GraphSample g = tiny_sample(0, 8);
  std::vector<std::vector<int>> feat(g.num_nodes(), std::vector<int>{1, 4});
  feat[3] = {4, 1};
  set_features(g, feat);
  EXPECT_THROW(model.predict(g), std::invalid_argument);
  feat[3] = {4, 4};  // dense X holds one 1.0 there; the list would count two
  set_features(g, feat);
  EXPECT_THROW(model.predict(g), std::invalid_argument);
  feat[3] = {1, 4};
  set_features(g, feat);
  EXPECT_NO_THROW(model.predict(g));
}

TEST(Dgcnn, RejectsFeatureOffsetsDisagreeingWithNodeCount) {
  Dgcnn model(12, tiny_config());
  GraphSample g = tiny_sample(0, 8);
  GraphSample shorter = g;
  shorter.feat_offsets.pop_back();
  EXPECT_THROW(model.predict(shorter), std::invalid_argument);
  GraphSample longer = g;
  longer.feat_offsets.push_back(longer.feat_offsets.back());
  EXPECT_THROW(model.predict(longer), std::invalid_argument);
  GraphSample past_end = g;
  past_end.feat_offsets[1] = static_cast<int>(past_end.feat.size()) + 4;
  EXPECT_THROW(model.predict(past_end), std::invalid_argument);
}

TEST(Dgcnn, RejectsBadConfig) {
  DgcnnConfig cfg = tiny_config();
  cfg.sortpool_k = 2;  // pool -> 1 frame, kernel 2 does not fit
  EXPECT_THROW(Dgcnn(12, cfg), std::invalid_argument);
  cfg = tiny_config();
  cfg.conv_channels.clear();
  EXPECT_THROW(Dgcnn(12, cfg), std::invalid_argument);
}

TEST(Dgcnn, SaveLoadRoundTrip) {
  Dgcnn model(12, tiny_config());
  const GraphSample g = tiny_sample(1, 9);
  const double before = model.predict(g);
  const auto snapshot = model.save_parameters();
  // Perturb by training a few steps.
  for (int i = 0; i < 5; ++i) train_step(model, {g}, i);
  EXPECT_NE(model.predict(g), before);
  model.load_parameters(snapshot);
  EXPECT_DOUBLE_EQ(model.predict(g), before);
}

TEST(Dgcnn, ParameterCountMatchesTopology) {
  DgcnnConfig cfg = tiny_config();
  Dgcnn model(12, cfg);
  // conv: 12*4 + 4*4 + 4*1; k1: 3*9 + 3; k2: 4*(3*2) + 4;
  // dense1: 8 * (conv2_len * 4) + 8 with conv2_len = 6/2 - 2 + 1 = 2;
  // dense2: 2*8 + 2.
  const std::size_t expected = (12 * 4 + 4 * 4 + 4 * 1) + (3 * 9 + 3) + (4 * 6 + 4) +
                               (8 * (2 * 4) + 8) + (2 * 8 + 2);
  EXPECT_EQ(model.num_parameters(), expected);
}

// --- gradient checks ---------------------------------------------------------------

// Random tree on n nodes with feature dim 12 (n < k, n == k and n > k all
// occur with tiny_config's k = 6).
GraphSample tree_sample(int n, int label, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphSample g;
  g.label = label;
  std::vector<std::vector<int>> nbr(n);
  for (int i = 1; i < n; ++i) {
    const int j = static_cast<int>(rng() % i);
    nbr[i].push_back(j);
    nbr[j].push_back(i);
  }
  set_adjacency(g, nbr);
  std::vector<std::vector<int>> feat(n);
  for (int i = 0; i < n; ++i) {
    // One or two active columns, ascending; every fourth node has none.
    const int lo = static_cast<int>(rng() % 6), hi = 6 + static_cast<int>(rng() % 6);
    if (i % 4 == 3) continue;
    feat[i] = rng() % 2 == 0 ? std::vector<int>{lo} : std::vector<int>{lo, hi};
  }
  set_features(g, feat);
  return g;
}

double cross_entropy(double p1, int label) {
  return -std::log(std::max(label == 1 ? p1 : 1.0 - p1, 1e-12));
}

// Runs one slot through the trainer's entry and expands its gradients by
// merging them into a zeroed copy of the model's accumulators.
double slot_gradients(const Dgcnn& model, std::span<const GraphSample* const> slot,
                      std::span<const std::uint64_t> seeds, std::vector<Matrix>& grads) {
  Dgcnn sink = model;
  sink.zero_gradients();
  Dgcnn::SlotGradients buffers = model.make_slot_gradients();
  const double loss = model.accumulate_gradients(slot, buffers, seeds);
  sink.merge_gradients({&buffers, 1});
  grads = sink.gradients();
  return loss;
}

// Numerically verifies d(loss)/d(theta) for every parameter tensor via
// central finite differences, through the slot entry: the loss is the sum
// over a three-sample slot with n < k, n == k and n > k.
class GradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  const int label = GetParam() % 2;
  Dgcnn model(12, tiny_config());
  {
    // Biases start at zero, which would put every zero frame of a graph
    // smaller than k exactly on conv-1's ReLU kink; move them off it.
    auto p = model.save_parameters();
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> u(-0.3, 0.3);
    for (Matrix& m : p) {
      if (m.rows != 1) continue;  // the bias rows
      for (int c = 0; c < m.cols; ++c) m.at(0, c) = u(rng);
    }
    model.load_parameters(p);
  }
  const GraphSample a = tree_sample(3, label, 100 + GetParam());
  const GraphSample b = tree_sample(6, 1 - label, 200 + GetParam());
  const GraphSample c = tiny_sample(label, 100 + GetParam());
  const GraphSample* slot[] = {&a, &b, &c};

  auto loss_of = [&](const Dgcnn& m) {
    double p[3];
    m.score(slot, p);
    double loss = 0.0;
    for (int i = 0; i < 3; ++i) loss += cross_entropy(p[i], slot[i]->label);
    return loss;
  };

  // Analytic gradients from one slot backprop pass.
  std::vector<Matrix> analytic;
  const std::uint64_t seeds[] = {1, 2, 3};
  const double loss = slot_gradients(model, slot, seeds, analytic);
  EXPECT_DOUBLE_EQ(loss, loss_of(model));  // dropout is 0: same forward
  const auto params = model.save_parameters();

  // Central finite differences on every element of every parameter tensor
  // (the tiny topology keeps this ~1k probes). ReLU/max-pool kinks and the
  // SortPooling permutation can make isolated elements non-differentiable;
  // allow a tiny fraction of mismatches at eps-scale.
  const double eps = 1e-6;
  std::size_t checked = 0, bad = 0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    for (std::size_t e = 0; e < params[t].data.size(); ++e) {
      auto plus = params;
      auto minus = params;
      plus[t].data[e] += eps;
      minus[t].data[e] -= eps;
      Dgcnn mp(12, tiny_config()), mm(12, tiny_config());
      mp.load_parameters(plus);
      mm.load_parameters(minus);
      const double numeric = (loss_of(mp) - loss_of(mm)) / (2 * eps);
      const double exact = analytic[t].data[e];
      const double tol = 1e-4 * std::max({1.0, std::abs(numeric), std::abs(exact)});
      ++checked;
      if (std::abs(numeric - exact) > tol) ++bad;
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_LE(bad, checked / 200) << bad << " of " << checked << " gradient elements off";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheck, ::testing::Values(0, 1, 2, 3));

// --- slot path vs per-sample reference ---------------------------------------------

// The per-sample DGCNN the slot path replaced, written out with plain loops:
// every sum chains in the order the scalar kernels add (bias first, then
// ascending index; gradients accumulate per sample, skipping zero terms), so
// under the scalar table the slot path must reproduce it bit for bit.
struct Reference {
  const std::vector<Matrix>& p;  // parameters in parameter_shapes() order
  const DgcnnConfig& cfg;

  static Matrix propagate(const GraphSample& g, const Matrix& h) {
    Matrix out(h.rows, h.cols);
    for (int i = 0; i < h.rows; ++i) {
      for (int c = 0; c < h.cols; ++c) {
        double v = h.at(i, c);
        for (int j : g.neighbors(i)) v += h.at(j, c);
        out.at(i, c) = v * g.inv_deg[i];
      }
    }
    return out;
  }

  static Matrix propagate_transpose(const GraphSample& g, const Matrix& d) {
    Matrix out(d.rows, d.cols);
    for (int j = 0; j < d.rows; ++j) {
      for (int c = 0; c < d.cols; ++c) {
        double v = g.inv_deg[j] * d.at(j, c);
        for (int i : g.neighbors(j)) v += g.inv_deg[i] * d.at(i, c);
        out.at(j, c) = v;
      }
    }
    return out;
  }

  // Returns P(label = 1). With `rng` the forward drops units; with `grads`
  // it also backpropagates into them.
  double run(const GraphSample& g, std::mt19937_64* rng, std::vector<Matrix>* grads) const {
    const int L = static_cast<int>(cfg.conv_channels.size());
    const int n = g.num_nodes(), k = cfg.sortpool_k;
    const int ch1 = cfg.conv1d_channels1, ch2 = cfg.conv1d_channels2, kw = cfg.conv1d_kernel2;
    const int pooled = k / 2, len2 = pooled - kw + 1, units = cfg.dense_units;
    const Matrix &k1 = p[L], &b1 = p[L + 1], &k2 = p[L + 2], &b2 = p[L + 3];
    const Matrix &w5 = p[L + 4], &b5 = p[L + 5], &w6 = p[L + 6], &b6 = p[L + 7];
    const int cat = std::accumulate(cfg.conv_channels.begin(), cfg.conv_channels.end(), 0);

    std::vector<Matrix> u(L), h(L);
    for (int l = 0; l < L; ++l) {
      u[l] = propagate(g, l == 0 ? dense_features(g, p[0].rows) : h[l - 1]);
      h[l] = Matrix(n, cfg.conv_channels[l]);
      for (int i = 0; i < n; ++i) {
        for (int c = 0; c < h[l].cols; ++c) {
          double v = 0.0;
          for (int a = 0; a < u[l].cols; ++a) v += u[l].at(i, a) * p[l].at(a, c);
          h[l].at(i, c) = std::tanh(v);
        }
      }
    }
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    const Matrix& last = h[L - 1];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double va = last.at(a, last.cols - 1), vb = last.at(b, last.cols - 1);
      return va != vb ? va > vb : a < b;
    });
    const int kept = std::min(k, n);
    Matrix s(k, cat);
    for (int t = 0; t < kept; ++t) {
      int off = 0;
      for (int l = 0; l < L; ++l) {
        for (int c = 0; c < h[l].cols; ++c) s.at(t, off + c) = h[l].at(order[t], c);
        off += h[l].cols;
      }
    }
    Matrix c1(k, ch1);
    for (int t = 0; t < k; ++t) {
      for (int c = 0; c < ch1; ++c) {
        double v = b1.at(0, c);
        for (int j = 0; j < cat; ++j) v += k1.at(c, j) * s.at(t, j);
        c1.at(t, c) = v > 0.0 ? v : 0.0;
      }
    }
    Matrix m(pooled, ch1);
    std::vector<int> argmax(static_cast<std::size_t>(pooled) * ch1);
    for (int t = 0; t < pooled; ++t) {
      for (int c = 0; c < ch1; ++c) {
        const bool first = c1.at(2 * t, c) >= c1.at(2 * t + 1, c);
        m.at(t, c) = first ? c1.at(2 * t, c) : c1.at(2 * t + 1, c);
        argmax[static_cast<std::size_t>(t) * ch1 + c] = first ? 2 * t : 2 * t + 1;
      }
    }
    Matrix c2(len2, ch2);
    std::vector<double> f(static_cast<std::size_t>(len2) * ch2);
    for (int t = 0; t < len2; ++t) {
      for (int c = 0; c < ch2; ++c) {
        double v = b2.at(0, c);
        for (int dt = 0; dt < kw; ++dt) {
          for (int j = 0; j < ch1; ++j) v += k2.at(c, dt * ch1 + j) * m.at(t + dt, j);
        }
        c2.at(t, c) = v > 0.0 ? v : 0.0;
        f[static_cast<std::size_t>(t) * ch2 + c] = c2.at(t, c);
      }
    }
    std::vector<double> hid(units), mask(units, 1.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int q = 0; q < units; ++q) {
      double v = b5.at(0, q);
      for (std::size_t j = 0; j < f.size(); ++j) v += w5.at(q, static_cast<int>(j)) * f[j];
      v = v > 0.0 ? v : 0.0;
      if (rng != nullptr && cfg.dropout > 0.0) {
        if (unit(*rng) < cfg.dropout) {
          mask[q] = 0.0;
          v = 0.0;
        } else {
          mask[q] = 1.0 / (1.0 - cfg.dropout);
          v *= mask[q];
        }
      }
      hid[q] = v;
    }
    double logits[2];
    for (int c = 0; c < 2; ++c) {
      logits[c] = b6.at(0, c);
      for (int q = 0; q < units; ++q) logits[c] += w6.at(c, q) * hid[q];
    }
    const double mx = std::max(logits[0], logits[1]);
    const double e0 = std::exp(logits[0] - mx), e1 = std::exp(logits[1] - mx);
    const double p1 = e1 / (e0 + e1);
    if (grads == nullptr) return p1;

    std::vector<Matrix>& gr = *grads;
    const double dl[2] = {(1.0 - p1) - (g.label == 0 ? 1.0 : 0.0), p1 - (g.label == 1 ? 1.0 : 0.0)};
    std::vector<double> dhid(units, 0.0);
    for (int c = 0; c < 2; ++c) {
      gr[L + 7].at(0, c) += dl[c];
      for (int q = 0; q < units; ++q) {
        gr[L + 6].at(c, q) += dl[c] * hid[q];
        dhid[q] += dl[c] * w6.at(c, q);
      }
    }
    for (int q = 0; q < units; ++q) dhid[q] = hid[q] > 0.0 ? dhid[q] * mask[q] : 0.0;
    std::vector<double> df(f.size(), 0.0);
    for (int q = 0; q < units; ++q) {
      if (dhid[q] == 0.0) continue;
      gr[L + 5].at(0, q) += dhid[q];
      for (std::size_t j = 0; j < f.size(); ++j) {
        gr[L + 4].at(q, static_cast<int>(j)) += dhid[q] * f[j];
        df[j] += dhid[q] * w5.at(q, static_cast<int>(j));
      }
    }
    Matrix dm(pooled, ch1);
    for (int t = 0; t < len2; ++t) {
      for (int c = 0; c < ch2; ++c) {
        const double d = df[static_cast<std::size_t>(t) * ch2 + c];
        if (c2.at(t, c) <= 0.0 || d == 0.0) continue;
        gr[L + 3].at(0, c) += d;
        for (int dt = 0; dt < kw; ++dt) {
          for (int j = 0; j < ch1; ++j) {
            gr[L + 2].at(c, dt * ch1 + j) += d * m.at(t + dt, j);
            dm.at(t + dt, j) += d * k2.at(c, dt * ch1 + j);
          }
        }
      }
    }
    Matrix dc1(k, ch1);
    for (int t = 0; t < pooled; ++t) {
      for (int c = 0; c < ch1; ++c) {
        const int src = argmax[static_cast<std::size_t>(t) * ch1 + c];
        if (dm.at(t, c) != 0.0) dc1.at(src, c) += dm.at(t, c);
      }
    }
    Matrix ds(k, cat);
    for (int t = 0; t < k; ++t) {
      for (int c = 0; c < ch1; ++c) {
        const double d = dc1.at(t, c);
        if (d == 0.0 || c1.at(t, c) <= 0.0) continue;
        gr[L + 1].at(0, c) += d;
        for (int j = 0; j < cat; ++j) {
          gr[L].at(c, j) += d * s.at(t, j);
          ds.at(t, j) += d * k1.at(c, j);
        }
      }
    }
    std::vector<Matrix> dh(L);
    for (int l = 0; l < L; ++l) dh[l] = Matrix(n, cfg.conv_channels[l]);
    for (int t = 0; t < kept; ++t) {
      int off = 0;
      for (int l = 0; l < L; ++l) {
        for (int c = 0; c < dh[l].cols; ++c) dh[l].at(order[t], c) += ds.at(t, off + c);
        off += dh[l].cols;
      }
    }
    for (int l = L - 1; l >= 0; --l) {
      for (int i = 0; i < n; ++i) {
        for (int c = 0; c < dh[l].cols; ++c) dh[l].at(i, c) *= 1.0 - h[l].at(i, c) * h[l].at(i, c);
      }
      for (int a = 0; a < u[l].cols; ++a) {
        for (int c = 0; c < dh[l].cols; ++c) {
          double v = gr[l].at(a, c);
          for (int i = 0; i < n; ++i) v += u[l].at(i, a) * dh[l].at(i, c);
          gr[l].at(a, c) = v;
        }
      }
      if (l == 0) break;
      Matrix du(n, u[l].cols);
      for (int i = 0; i < n; ++i) {
        for (int a = 0; a < u[l].cols; ++a) {
          double v = 0.0;
          for (int c = 0; c < dh[l].cols; ++c) v += dh[l].at(i, c) * p[l].at(a, c);
          du.at(i, a) = v;
        }
      }
      const Matrix dz = propagate_transpose(g, du);
      for (int i = 0; i < n; ++i) {
        for (int a = 0; a < dz.cols; ++a) dh[l - 1].at(i, a) += dz.at(i, a);
      }
    }
    return p1;
  }
};

DgcnnConfig slot_config() {
  DgcnnConfig cfg = tiny_config();
  cfg.dropout = 0.5;
  return cfg;
}

// Samples with n < k, n == k and n > k for tiny_config's k = 6, both labels.
std::vector<GraphSample> mixed_samples() {
  std::vector<GraphSample> out;
  const int sizes[] = {3, 6, 9, 4, 6, 12, 5, 8, 2, 7};
  for (int i = 0; i < 10; ++i) out.push_back(tree_sample(sizes[i], i % 2, 300 + i));
  return out;
}

// Runs every slot size 1..4 over the mixed samples through the slot path
// and the reference; `same` compares two doubles.
template <typename Same>
void check_slots_against_reference(Same same) {
  const DgcnnConfig cfg = slot_config();
  Dgcnn model(12, cfg);
  // Move off the initial weights so biases and every layer are nonzero.
  const std::vector<GraphSample> data = mixed_samples();
  for (int step = 0; step < 3; ++step) train_step(model, data, 100 * step);
  const std::vector<Matrix> params = model.save_parameters();
  const Reference ref{params, cfg};

  for (std::size_t size = 1; size <= Dgcnn::kSlotSamples; ++size) {
    for (std::size_t first = 0; first + size <= data.size(); first += size) {
      std::vector<const GraphSample*> slot;
      std::vector<std::uint64_t> seeds;
      for (std::size_t i = first; i < first + size; ++i) {
        slot.push_back(&data[i]);
        seeds.push_back(1000 + i);
      }
      SCOPED_TRACE("slot of " + std::to_string(size) + " from sample " + std::to_string(first));

      // Scoring: the slot scores each sample as the reference does.
      std::vector<double> scores(size);
      model.score(slot, scores.data());
      for (std::size_t i = 0; i < size; ++i) {
        same(scores[i], ref.run(*slot[i], nullptr, nullptr), "score");
      }

      // Training: losses and gradients, samples accumulated in order.
      std::vector<Matrix> got;
      const double loss = slot_gradients(model, slot, seeds, got);
      std::vector<Matrix> want = zeroed_like(params);
      double want_loss = 0.0;
      for (std::size_t i = 0; i < size; ++i) {
        std::mt19937_64 rng(seeds[i]);
        want_loss += cross_entropy(ref.run(*slot[i], &rng, &want), slot[i]->label);
      }
      same(loss, want_loss, "loss");
      for (std::size_t t = 0; t < want.size(); ++t) {
        for (int r = 0; r < want[t].rows; ++r) {
          for (int c = 0; c < want[t].cols; ++c) {
            same(got[t].at(r, c), want[t].at(r, c),
                 ("gradient tensor " + std::to_string(t)).c_str());
          }
        }
      }
    }
  }
}

// Restores the session's dispatch mode (MUXLINK_SIMD), so a forced table
// does not leak into the tests after this one.
struct SimdModeGuard {
  common::SimdMode mode = common::simd_mode();
  ~SimdModeGuard() { common::set_simd_mode(mode); }
};

TEST(SlotBatch, ScalarSlotsMatchPerSampleReferenceBitForBit) {
  SimdModeGuard guard;
  common::set_simd_mode(common::SimdMode::kScalar);
  check_slots_against_reference([](double got, double want, const char* what) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << what << ": " << got << " vs " << want;
  });
}

TEST(SlotBatch, Avx2SlotsMatchPerSampleReferenceWithinTolerance) {
  if (avx2_kernels() == nullptr) GTEST_SKIP() << "host or build lacks AVX2+FMA";
  SimdModeGuard guard;
  common::set_simd_mode(common::SimdMode::kAvx2);
  // test_simd's kernel tolerance, applied end to end.
  check_slots_against_reference([](double got, double want, const char* what) {
    ASSERT_NEAR(got, want, 1e-10 * std::max(1.0, std::abs(want))) << what;
  });
}

// In every table a sample's score and gradients do not depend on its
// slot-mates: one four-sample slot equals four one-sample slots accumulated
// into the same SlotGradients, bit for bit.
TEST(SlotBatch, SlotEqualsItsSamplesOneByOne) {
  const DgcnnConfig cfg = slot_config();
  const Dgcnn model(12, cfg);
  const std::vector<GraphSample> data = mixed_samples();
  const GraphSample* slot[] = {&data[0], &data[1], &data[2], &data[5]};
  const std::uint64_t seeds[] = {7, 8, 9, 10};
  double together[4];
  model.score(slot, together);
  Dgcnn::SlotGradients slot_grads = model.make_slot_gradients();
  const double slot_loss = model.accumulate_gradients(slot, slot_grads, seeds);
  Dgcnn::SlotGradients one_by_one = model.make_slot_gradients();
  double loss = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(together[i]),
              std::bit_cast<std::uint64_t>(model.predict(*slot[i])));
    loss += model.accumulate_gradients(std::span(slot + i, 1), one_by_one, std::span(seeds + i, 1));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(slot_loss), std::bit_cast<std::uint64_t>(loss));
  for (std::size_t t = 0; t < slot_grads.grads.size(); ++t) {
    EXPECT_TRUE(slot_grads.grads[t].data == one_by_one.grads[t].data) << "gradient tensor " << t;
  }
  EXPECT_TRUE(slot_grads.dhid.data == one_by_one.dhid.data);
  EXPECT_TRUE(slot_grads.f.data == one_by_one.f.data);
}

TEST(SlotBatch, RejectsOversizedSlotsAndMissingSeeds) {
  const Dgcnn model(12, tiny_config());
  const std::vector<GraphSample> data = mixed_samples();
  const GraphSample* five[] = {&data[0], &data[1], &data[2], &data[3], &data[4]};
  double out[5];
  EXPECT_THROW(model.score(five, out), std::invalid_argument);
  Dgcnn::SlotGradients grads = model.make_slot_gradients();
  const std::uint64_t seeds[] = {1, 2, 3, 4, 5};
  EXPECT_THROW(model.accumulate_gradients(five, grads, seeds), std::invalid_argument);
  const GraphSample* two[] = {&data[0], &data[1]};
  EXPECT_THROW(model.accumulate_gradients(two, grads, std::span(seeds, 1)),
               std::invalid_argument);
}

// merge_gradients adds each slot in order exactly as if the slot's samples
// had been accumulated, one by one, into a zeroed parameter-shaped buffer
// (the reference's) and that buffer added element by element — onto
// accumulators already holding gradients, with slots of different sizes.
template <typename Same>
void check_merge_against_reference(Same same) {
  const DgcnnConfig cfg = slot_config();
  const std::vector<GraphSample> data = mixed_samples();
  Dgcnn merged(12, cfg);
  const std::vector<Matrix> params = merged.save_parameters();
  const Reference ref{params, cfg};
  {  // nonzero start
    const GraphSample* start[] = {&data[0], &data[1], &data[2]};
    const std::uint64_t seeds[] = {30, 31, 32};
    Dgcnn::SlotGradients slot = merged.make_slot_gradients();
    merged.accumulate_gradients(start, slot, seeds);
    merged.merge_gradients({&slot, 1});
  }
  std::vector<Matrix> expected = merged.gradients();
  const std::size_t firsts[] = {0, 4, 8};
  const std::size_t sizes[] = {4, 4, 2};
  std::vector<Dgcnn::SlotGradients> slots;
  for (int s = 0; s < 3; ++s) {
    std::vector<const GraphSample*> members;
    std::vector<std::uint64_t> seeds;
    std::vector<Matrix> buffer = zeroed_like(params);
    for (std::size_t i = firsts[s]; i < firsts[s] + sizes[s]; ++i) {
      members.push_back(&data[i]);
      seeds.push_back(40 + i);
      std::mt19937_64 rng(seeds.back());
      ref.run(data[i], &rng, &buffer);
    }
    for (std::size_t t = 0; t < buffer.size(); ++t) {
      for (std::size_t e = 0; e < buffer[t].data.size(); ++e) {
        expected[t].data[e] += buffer[t].data[e];
      }
    }
    slots.push_back(merged.make_slot_gradients());
    merged.accumulate_gradients(members, slots.back(), seeds);
  }
  merged.merge_gradients(slots);
  for (std::size_t t = 0; t < expected.size(); ++t) {
    for (int r = 0; r < expected[t].rows; ++r) {
      for (int c = 0; c < expected[t].cols; ++c) {
        same(merged.gradients()[t].at(r, c), expected[t].at(r, c),
             ("tensor " + std::to_string(t)).c_str());
      }
    }
  }
  // Merging empties the slots: a second merge adds nothing.
  const std::vector<Matrix> before = merged.gradients();
  merged.merge_gradients(slots);
  for (std::size_t t = 0; t < before.size(); ++t) {
    EXPECT_TRUE(merged.gradients()[t].data == before[t].data) << "tensor " << t;
  }
}

// Bit for bit under the scalar table, within tolerance under AVX2.
TEST(SlotBatch, MergeAddsSlotsInOrderLikeExpandedBuffers) {
  SimdModeGuard guard;
  common::set_simd_mode(common::SimdMode::kScalar);
  check_merge_against_reference([](double got, double want, const char* what) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << what << ": " << got << " vs " << want;
  });
  if (avx2_kernels() == nullptr) return;
  common::set_simd_mode(common::SimdMode::kAvx2);
  check_merge_against_reference([](double got, double want, const char* what) {
    ASSERT_NEAR(got, want, 1e-10 * std::max(1.0, std::abs(want))) << what;
  });
}

// The trainer runs every batch as ⌈bsz/4⌉ slots through the slot entry —
// counted by `gnn.train.slots` — and each backward slot records one sample
// of every `gnn.layer.*.bwd_s` timer.
TEST(SlotBatch, TrainerRunsEveryBatchAsSlots) {
  if (!common::metrics_enabled()) GTEST_SKIP() << "metrics disabled";
  std::vector<GraphSample> data;
  for (int i = 0; i < 23; ++i) data.push_back(tree_sample(3 + i % 8, i % 2, 500 + i));
  Dgcnn model(12, slot_config());
  TrainOptions topts;
  topts.epochs = 3;
  topts.batch_size = 10;  // batches of 10, 10 and 3 samples
  common::MetricsRegistry::instance().reset();
  const TrainReport report = train_link_predictor(model, data, topts);
  ASSERT_EQ(report.train_samples, 23u);  // 23 < 80: validation reuses every sample
  std::int64_t expected = 0;
  for (std::size_t start = 0; start < report.train_samples; start += 10) {
    const std::size_t bsz = std::min<std::size_t>(10, report.train_samples - start);
    expected += static_cast<std::int64_t>((bsz + Dgcnn::kSlotSamples - 1) / Dgcnn::kSlotSamples);
  }
  expected *= topts.epochs;
  const common::MetricsSnapshot snap = common::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("gnn.train.slots"), expected);
  for (const char* layer : {"gconv", "sortpool", "conv1", "conv2", "dense1", "dense2"}) {
    const std::string bwd = std::string("gnn.layer.") + layer + ".bwd_s";
    const std::string fwd = std::string("gnn.layer.") + layer + ".fwd_s";
    ASSERT_TRUE(snap.histograms.count(bwd)) << bwd;
    EXPECT_EQ(snap.histograms.at(bwd).count, static_cast<std::uint64_t>(expected)) << bwd;
    // Forward also runs for the validation pass.
    EXPECT_GT(snap.histograms.at(fwd).count, static_cast<std::uint64_t>(expected)) << fwd;
  }
}

// --- AUC ------------------------------------------------------------------------------

// Pairwise O(|pos|·|neg|) Mann-Whitney reference (the formulation the
// rank-sum implementation replaced).
double auc_pairwise(const std::vector<double>& scores, const std::vector<int>& labels) {
  std::vector<double> pos, neg;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    (labels[i] == 1 ? pos : neg).push_back(scores[i]);
  }
  if (pos.empty() || neg.empty()) return 0.5;
  double wins = 0.0;
  for (double p : pos) {
    for (double n : neg) {
      if (p > n) {
        wins += 1.0;
      } else if (p == n) {
        wins += 0.5;
      }
    }
  }
  return wins / (static_cast<double>(pos.size()) * static_cast<double>(neg.size()));
}

TEST(Auc, RankSumMatchesPairwiseOnRandomScores) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + rng() % 200;
    std::vector<double> scores(n);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Quantized scores on odd trials force heavy ties — the case the
      // midrank tie correction must get exactly right.
      const double s = unit(rng);
      scores[i] = trial % 2 == 0 ? s : std::round(s * 8.0) / 8.0;
      labels[i] = rng() % 2 == 0 ? 1 : 0;
    }
    EXPECT_NEAR(auc_from_scores(scores, labels), auc_pairwise(scores, labels), 1e-12)
        << "trial " << trial;
  }
}

// A NaN score (diverged parameters) has no rank: the AUC is NaN, the value
// telemetry reports for an AUC it did not compute, and the call returns.
TEST(Auc, NanScoreReturnsNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(auc_from_scores({0.2, nan, 0.7}, {0, 1, 1})));
  EXPECT_TRUE(std::isnan(auc_from_scores({nan, nan}, {0, 1})));
  EXPECT_TRUE(std::isnan(auc_from_scores({nan, 0.4}, {1, 1})));
}

TEST(Auc, DegenerateClassesReturnHalf) {
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.1, 0.9}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.9, 0.1}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(auc_from_scores({0.5, 0.5}, {0, 1}), 0.5);
}

// --- training -----------------------------------------------------------------------

TEST(Trainer, OverfitsTinyDatasetAndCheckpointsBest) {
  // Distinguishable classes: label-1 graphs are dense, label-0 are chains.
  std::vector<GraphSample> data;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 24; ++i) {
    const int label = i % 2;
    GraphSample g;
    const int n = 8;
    g.label = label;
    std::vector<std::vector<int>> nbr(n);
    if (label == 1) {
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if ((u + v + i) % 2 == 0) {
            nbr[u].push_back(v);
            nbr[v].push_back(u);
          }
        }
      }
    } else {
      for (int u = 1; u < n; ++u) {
        nbr[u].push_back(u - 1);
        nbr[u - 1].push_back(u);
      }
    }
    set_adjacency(g, nbr);
    std::vector<std::vector<int>> feat(n);
    for (int u = 0; u < n; ++u) feat[u] = {static_cast<int>(rng() % 12)};
    set_features(g, feat);
    data.push_back(std::move(g));
  }

  DgcnnConfig cfg = tiny_config();
  cfg.learning_rate = 5e-3;
  Dgcnn model(12, cfg);
  TrainOptions topts;
  topts.epochs = 60;
  topts.batch_size = 8;
  topts.seed = 2;
  // The telemetry stream carries one record per epoch, each with both AUCs.
  const auto log = std::filesystem::temp_directory_path() / "muxlink-trainer-epochs.jsonl";
  std::filesystem::remove(log);
  TrainReport report;
  {
    muxlink::common::JsonlWriter telemetry(log.string());
    topts.telemetry = &telemetry;
    report = train_link_predictor(model, data, topts);
  }
  int epochs_seen = 0;
  std::ifstream in(log);
  for (std::string line; std::getline(in, line); ++epochs_seen) {
    EXPECT_NE(line.find("\"train_auc\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"val_auc\""), std::string::npos) << line;
  }
  std::filesystem::remove(log);
  EXPECT_EQ(epochs_seen, 60);
  EXPECT_GE(report.best_epoch, 1);
  EXPECT_GT(report.best_val_accuracy, 0.6);
  EXPECT_GT(evaluate_accuracy(model, data), 0.8);
}

TEST(Trainer, EmptyDatasetIsANoop) {
  Dgcnn model(12, tiny_config());
  const TrainReport report = train_link_predictor(model, {}, {});
  EXPECT_EQ(report.best_epoch, -1);
}

TEST(Trainer, LearnsRealCircuitLinks) {
  // End-to-end: sample links from a synthetic circuit, train briefly, and
  // check that link classification clearly beats chance on training data.
  netlist::Netlist nl;
  const auto g = small_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 120, .seed = 3});
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  std::vector<GraphSample> data;
  std::vector<int> sizes;
  for (const auto& ls : links) {
    const auto sg = graph::extract_enclosing_subgraph(g, ls.link, sopts);
    sizes.push_back(static_cast<int>(sg.num_nodes()));
    data.push_back(encode_subgraph(sg, sopts.hops, ls.positive ? 1 : 0));
  }
  DgcnnConfig cfg;
  cfg.sortpool_k = choose_sortpool_k(sizes);
  cfg.learning_rate = 1e-3;
  cfg.dropout = 0.5;
  cfg.seed = 11;
  Dgcnn model(feature_dim_for_hops(sopts.hops), cfg);
  TrainOptions topts;
  topts.epochs = 30;
  topts.batch_size = 16;
  const TrainReport report = train_link_predictor(model, data, topts);
  EXPECT_GT(report.best_val_accuracy, 0.55);
  EXPECT_GT(evaluate_accuracy(model, data), 0.7);
}

}  // namespace
}  // namespace muxlink::gnn
