// Equivalence and dispatch contract of the SIMD kernel layer (DESIGN.md §10).
//
// Two kernel classes, asserted per kernel against the scalar oracle table:
//   * bit-identical — propagate, propagate_transpose, tanh_backward_inplace,
//     add, scale, relu_dropout_backward, adam_update: per-lane scalar op
//     order, no FMA, so the AVX2 table must match the scalar table bit for
//     bit on every input;
//   * tolerance-equivalent — matmul, matmul_at_b_accum, matmul_a_bt,
//     matmul_a_bt_bias, matmul_at_b_accum_sparse, dot_acc, axpy, sumsq_acc,
//     tanh: lane reassociation / FMA / polynomial exp change low-order bits
//     only.
//
// Graph-conv layer 0 from CSR rows is a third class: within each table,
// csr_matmul / csr_matmul_at_b_accum are bit-identical to that table's dense
// matmul / matmul_at_b_accum over the densified rows.
//
// Shapes are deliberately odd/prime so every padded row has live pad lanes
// and every remainder loop in the AVX2 TU runs. On hosts without AVX2+FMA
// the equivalence suite skips (there is nothing to compare); the dispatch
// and override tests still run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "circuitgen/generator.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "gnn/encoding.h"
#include "gnn/simd.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "support/graph_sample.h"

namespace muxlink {
namespace {

// Restores the session's dispatch mode so one test can't leak a forced
// table into the rest of the binary.
struct ModeGuard {
  common::SimdMode mode = common::simd_mode();
  ~ModeGuard() { common::set_simd_mode(mode); }
};

gnn::Matrix random_matrix(int r, int c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  gnn::Matrix m(r, c);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j) m.at(i, j) = u(rng);
  return m;
}

gnn::AlignedVec random_vec(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  gnn::AlignedVec v(n);
  for (double& x : v) x = u(rng);
  return v;
}

void expect_bits_equal(double a, double b, const char* what, std::size_t i) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " differs at element " << i << ": " << a << " vs " << b;
}

void expect_close(double a, double b, const char* what, std::size_t i) {
  const double tol = 1e-10 * std::max(1.0, std::abs(a));
  EXPECT_NEAR(a, b, tol) << what << " at element " << i;
}

void expect_matrices(const gnn::Matrix& ref, const gnn::Matrix& got, bool bit_identical,
                     const char* what) {
  ASSERT_EQ(ref.rows, got.rows) << what;
  ASSERT_EQ(ref.cols, got.cols) << what;
  for (int i = 0; i < ref.rows; ++i) {
    for (int j = 0; j < ref.cols; ++j) {
      const std::size_t flat = static_cast<std::size_t>(i) * ref.cols + j;
      if (bit_identical) {
        expect_bits_equal(ref.at(i, j), got.at(i, j), what, flat);
      } else {
        expect_close(ref.at(i, j), got.at(i, j), what, flat);
      }
    }
    // Pads-are-zero invariant: vector kernels may read pads but must only
    // ever write zeros there.
    for (int j = got.cols; j < got.ld; ++j) {
      EXPECT_EQ(got.row(i)[j], 0.0) << what << " wrote a pad lane, row " << i;
    }
  }
}

// Odd/prime matmul shapes (m, k, n): every row of every operand has live pad
// lanes except the deliberately lane-aligned last entry.
constexpr int kShapes[][3] = {
    {1, 1, 1}, {3, 5, 7}, {5, 3, 2}, {7, 13, 11}, {17, 7, 29}, {23, 19, 1}, {64, 48, 32},
};
constexpr std::size_t kVecLens[] = {1, 2, 3, 5, 7, 16, 17, 31, 257};

class SimdEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = gnn::avx2_kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "host or build lacks AVX2+FMA; nothing to compare";
    }
  }
  const gnn::KernelTable& sc() { return gnn::scalar_kernels(); }
  const gnn::KernelTable* avx2_ = nullptr;
  std::mt19937_64 rng_{20260808};
};

TEST_F(SimdEquivalence, MatmulToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[1], s[2], rng_);
    gnn::Matrix ref, got;
    sc().matmul(a, b, ref);
    avx2_->matmul(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul");
  }
}

TEST_F(SimdEquivalence, MatmulAtBAccumToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[0], s[2], rng_);
    const auto init = random_matrix(s[1], s[2], rng_);
    gnn::Matrix ref = init, got = init;
    sc().matmul_at_b_accum(a, b, ref);
    avx2_->matmul_at_b_accum(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_at_b_accum");
  }
}

TEST_F(SimdEquivalence, MatmulABtToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[2], s[1], rng_);
    gnn::Matrix ref, got;
    sc().matmul_a_bt(a, b, ref);
    avx2_->matmul_a_bt(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_a_bt");
  }
}

TEST_F(SimdEquivalence, MatmulABtBiasToleranceEquivalent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[2], s[1], rng_);
    const auto bias = random_matrix(1, s[2], rng_);
    gnn::Matrix ref, got;
    sc().matmul_a_bt_bias(a, b, bias, ref);
    avx2_->matmul_a_bt_bias(a, b, bias, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_a_bt_bias");
  }
}

// The scalar oracle's bias-first chain is dot_acc's (the DGCNN head's
// pre-slot accumulation), and in both tables a row's outputs do not depend
// on the other rows of the call — a slot scores each sample alone.
TEST_F(SimdEquivalence, MatmulABtBiasChainsLikeDotAccAndRowsAreIndependent) {
  for (const auto& s : kShapes) {
    const auto a = random_matrix(s[0], s[1], rng_);
    const auto b = random_matrix(s[2], s[1], rng_);
    const auto bias = random_matrix(1, s[2], rng_);
    gnn::Matrix all;
    sc().matmul_a_bt_bias(a, b, bias, all);
    for (int i = 0; i < s[0]; ++i) {
      for (int j = 0; j < s[2]; ++j) {
        expect_bits_equal(sc().dot_acc(bias.at(0, j), b.row(j), a.row(i), s[1]), all.at(i, j),
                          "matmul_a_bt_bias vs dot_acc", static_cast<std::size_t>(i) * s[2] + j);
      }
    }
    for (const gnn::KernelTable* t : {&sc(), avx2_}) {
      t->matmul_a_bt_bias(a, b, bias, all);
      for (int i = 0; i < s[0]; ++i) {
        gnn::Matrix one_row(1, s[1]);
        for (int k = 0; k < s[1]; ++k) one_row.at(0, k) = a.at(i, k);
        gnn::Matrix alone;
        t->matmul_a_bt_bias(one_row, b, bias, alone);
        for (int j = 0; j < s[2]; ++j) {
          expect_bits_equal(alone.at(0, j), all.at(i, j), t->isa, static_cast<std::size_t>(j));
        }
      }
    }
  }
}

// Row-sparse aᵀ·b: tolerance-equivalent across tables, and in each table
// bit-identical to that table's sequence of per-term axpys over the padded
// rows (zero terms skipped), which is the per-sample accumulation it
// replaces. (Padded rows keep the AVX2 axpy on its FMA path throughout; its
// scalar tail loop does not contract.)
TEST_F(SimdEquivalence, MatmulAtBAccumSparseMatchesPerTermAxpys) {
  for (const auto& s : kShapes) {
    auto a = random_matrix(s[0], s[1], rng_);
    for (int k = 0; k < s[0]; ++k) {
      for (int i = 0; i < s[1]; ++i) {
        if ((k + 2 * i) % 3 == 0) a.at(k, i) = 0.0;  // sparse, some all-zero columns
      }
    }
    const auto b = random_matrix(s[0], s[2], rng_);
    const auto init = random_matrix(s[1], s[2], rng_);
    gnn::Matrix ref = init, got = init;
    sc().matmul_at_b_accum_sparse(a, b, ref);
    avx2_->matmul_at_b_accum_sparse(a, b, got);
    expect_matrices(ref, got, /*bit_identical=*/false, "matmul_at_b_accum_sparse");
    for (const gnn::KernelTable* t : {&sc(), avx2_}) {
      gnn::Matrix sparse = init, axpys = init;
      t->matmul_at_b_accum_sparse(a, b, sparse);
      for (int k = 0; k < s[0]; ++k) {
        for (int i = 0; i < s[1]; ++i) {
          if (a.at(k, i) != 0.0) t->axpy(a.at(k, i), b.row(k), axpys.row(i), b.ld);
        }
      }
      expect_matrices(axpys, sparse, /*bit_identical=*/true, t->isa);
    }
  }
}

TEST_F(SimdEquivalence, PropagateBitIdentical) {
  // Real encoded subgraphs so the CSR path sees genuine degree structure.
  circuitgen::CircuitSpec spec;
  spec.seed = 5;
  spec.num_gates = 120;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  const auto nl = circuitgen::generate(spec);
  const auto g = graph::build_circuit_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 6, .seed = 3});
  ASSERT_FALSE(links.empty());
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  for (const auto& ls : links) {
    const auto sample = gnn::encode_subgraph(
        graph::extract_enclosing_subgraph(g, ls.link, sopts), sopts.hops, 1);
    // 7 channels: odd width, live pad lanes in h and both outputs.
    const auto h = random_matrix(sample.num_nodes(), 7, rng_);
    gnn::Matrix ref, got;
    sc().propagate(sample, h, ref);
    avx2_->propagate(sample, h, got);
    expect_matrices(ref, got, /*bit_identical=*/true, "propagate");
    sc().propagate_transpose(sample, h, ref);
    avx2_->propagate_transpose(sample, h, got);
    expect_matrices(ref, got, /*bit_identical=*/true, "propagate_transpose");
  }
}

TEST_F(SimdEquivalence, ElementwiseLoops) {
  for (const std::size_t n : kVecLens) {
    const auto src = random_vec(n, rng_);
    const auto other = random_vec(n, rng_);

    {  // tanh: tolerance (vector polynomial exp).
      gnn::AlignedVec ref = src, got = src;
      sc().tanh_inplace(ref.data(), n);
      avx2_->tanh_inplace(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "tanh", i);
    }
    {  // tanh with arguments across the small/general/saturated paths.
      gnn::AlignedVec ref(n), got(n);
      std::uniform_real_distribution<double> wide(-25.0, 25.0);
      for (std::size_t i = 0; i < n; ++i) ref[i] = got[i] = wide(rng_);
      sc().tanh_inplace(ref.data(), n);
      avx2_->tanh_inplace(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "tanh(wide)", i);
    }
    {  // tanh backward: bit-identical.
      gnn::AlignedVec ref = src, got = src;
      sc().tanh_backward_inplace(ref.data(), other.data(), n);
      avx2_->tanh_backward_inplace(got.data(), other.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "tanh_backward", i);
    }
    {  // dot_acc: tolerance; the init chaining must be honored by both.
      const double ref = sc().dot_acc(0.25, src.data(), other.data(), n);
      const double got = avx2_->dot_acc(0.25, src.data(), other.data(), n);
      expect_close(ref, got, "dot_acc", 0);
    }
    {  // axpy: tolerance (FMA in the vector body).
      gnn::AlignedVec ref = other, got = other;
      sc().axpy(0.37, src.data(), ref.data(), n);
      avx2_->axpy(0.37, src.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_close(ref[i], got[i], "axpy", i);
    }
    {  // add: bit-identical.
      gnn::AlignedVec ref = other, got = other;
      sc().add(ref.data(), src.data(), n);
      avx2_->add(got.data(), src.data(), n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "add", i);
    }
    {  // scale: bit-identical.
      gnn::AlignedVec ref = src, got = src;
      sc().scale(ref.data(), 1.0 / 3.0, n);
      avx2_->scale(got.data(), 1.0 / 3.0, n);
      for (std::size_t i = 0; i < n; ++i) expect_bits_equal(ref[i], got[i], "scale", i);
    }
    {  // sumsq_acc: tolerance.
      const double ref = sc().sumsq_acc(0.5, src.data(), n);
      const double got = avx2_->sumsq_acc(0.5, src.data(), n);
      expect_close(ref, got, "sumsq_acc", 0);
    }
    {  // relu' + dropout: bit-identical (mask-select, no arithmetic change).
      gnn::AlignedVec mask(n);
      std::bernoulli_distribution keep(0.5);
      for (std::size_t i = 0; i < n; ++i) mask[i] = keep(rng_) ? 2.0 : 0.0;
      gnn::AlignedVec ref = src, got = src;
      sc().relu_dropout_backward(ref.data(), other.data(), mask.data(), n);
      avx2_->relu_dropout_backward(got.data(), other.data(), mask.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_equal(ref[i], got[i], "relu_dropout_backward", i);
    }
    {  // adam: bit-identical on all four tensors.
      gnn::AlignedVec w_r = src, g_r = other, m_r = random_vec(n, rng_), v_r(n);
      std::uniform_real_distribution<double> pos(0.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) v_r[i] = pos(rng_);
      auto w_g = w_r, g_g = g_r, m_g = m_r, v_g = v_r;
      sc().adam_update(w_r.data(), g_r.data(), m_r.data(), v_r.data(), n, 1e-3, 0.9, 0.999,
                       0.125);
      avx2_->adam_update(w_g.data(), g_g.data(), m_g.data(), v_g.data(), n, 1e-3, 0.9, 0.999,
                         0.125);
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits_equal(w_r[i], w_g[i], "adam w", i);
        expect_bits_equal(g_r[i], g_g[i], "adam g", i);
        expect_bits_equal(m_r[i], m_g[i], "adam m", i);
        expect_bits_equal(v_r[i], v_g[i], "adam v", i);
      }
    }
  }
}

// In each table the layer-0 CSR kernels give the dense kernels' bits over
// the densified U0 = P·X: random k-hot samples with empty rows and isolated
// nodes, a zero weight row among negative weights, widths with and without
// live pad lanes (7 and 32 channels, 16-column passes and 4-column tails),
// gradients preloaded with zero and nonzero rows, and row ranges split in
// two giving the bits of one call.
TEST(CsrLayerZero, BitIdenticalToDenseKernelsInEachTable) {
  std::vector<const gnn::KernelTable*> tables{&gnn::scalar_kernels()};
  if (gnn::avx2_kernels() != nullptr) tables.push_back(gnn::avx2_kernels());
  std::mt19937_64 rng(20261019);
  constexpr int kDim = 46;
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 1 + 5 * trial;
    const int ch = trial % 3 == 0 ? 7 : (trial % 3 == 1 ? 32 : 20);
    const gnn::GraphSample s = gnn::random_khot_sample(n, kDim, 500 + trial);
    const gnn::Matrix x = gnn::dense_features(s, kDim);
    gnn::Matrix w = random_matrix(kDim, ch, rng);
    for (int j = 0; j < ch; ++j) w.at(trial % kDim, j) = 0.0;
    const gnn::Matrix dh = random_matrix(n, ch, rng);
    gnn::Matrix init = random_matrix(kDim, ch, rng);
    for (int r = 0; r < kDim; r += 3) {
      for (int j = 0; j < ch; ++j) init.at(r, j) = 0.0;
    }
    gnn::CsrRows u0;
    gnn::propagate_features(s, u0);
    if (n > 4) {
      ASSERT_EQ(u0.offsets[4], u0.offsets[5]) << "node 4's row should be empty";
    }
    const int half = n / 2;
    for (const gnn::KernelTable* t : tables) {
      SCOPED_TRACE(std::string(t->isa) + " trial " + std::to_string(trial));
      gnn::Matrix u_dense, h_dense;
      t->propagate(s, x, u_dense);
      t->matmul(u_dense, w, h_dense);
      gnn::Matrix h_csr(n, ch), h_split(n, ch);
      t->csr_matmul(u0, 0, n, w, h_csr);
      expect_matrices(h_dense, h_csr, /*bit_identical=*/true, "csr_matmul");
      t->csr_matmul(u0, 0, half, w, h_split);
      t->csr_matmul(u0, half, n, w, h_split);
      expect_matrices(h_csr, h_split, /*bit_identical=*/true, "csr_matmul split");
      for (int i = 0; i < n; ++i) {
        if (u0.offsets[i] != u0.offsets[i + 1]) continue;
        for (int j = 0; j < ch; ++j) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(h_csr.at(i, j)), 0u) << "empty row " << i;
        }
      }

      gnn::Matrix g_dense = init, g_csr = init, g_split = init;
      t->matmul_at_b_accum(u_dense, dh, g_dense);
      t->csr_matmul_at_b_accum(u0, 0, n, dh, g_csr);
      expect_matrices(g_dense, g_csr, /*bit_identical=*/true, "csr_matmul_at_b_accum");
      t->csr_matmul_at_b_accum(u0, 0, half, dh, g_split);
      t->csr_matmul_at_b_accum(u0, half, n, dh, g_split);
      expect_matrices(g_csr, g_split, /*bit_identical=*/true, "csr_matmul_at_b_accum split");
    }
  }
}

TEST(SimdDispatch, ModeParsingRoundTrips) {
  using common::SimdMode;
  EXPECT_EQ(common::parse_simd_mode("auto"), SimdMode::kAuto);
  EXPECT_EQ(common::parse_simd_mode("avx2"), SimdMode::kAvx2);
  EXPECT_EQ(common::parse_simd_mode("scalar"), SimdMode::kScalar);
  for (const auto m : {SimdMode::kAuto, SimdMode::kAvx2, SimdMode::kScalar}) {
    EXPECT_EQ(common::parse_simd_mode(common::to_string(m)), m);
  }
  EXPECT_THROW(common::parse_simd_mode("sse2"), std::invalid_argument);
  EXPECT_THROW(common::parse_simd_mode(""), std::invalid_argument);
  EXPECT_THROW(common::parse_simd_mode("AVX2"), std::invalid_argument);
}

TEST(SimdDispatch, OverrideRoundTripsThroughDispatch) {
  ModeGuard guard;
  common::set_simd_mode(common::SimdMode::kScalar);
  EXPECT_EQ(common::simd_mode(), common::SimdMode::kScalar);
  EXPECT_STREQ(gnn::kernels().isa, "scalar");
  EXPECT_FALSE(gnn::kernels().vectorized);

  common::set_simd_mode(common::SimdMode::kAuto);
  EXPECT_EQ(common::simd_mode(), common::SimdMode::kAuto);
  if (gnn::avx2_kernels() != nullptr) {
    // auto resolves upward when the hardware allows it...
    EXPECT_STREQ(gnn::kernels().isa, "avx2");
    // ...and an explicit request round-trips too.
    common::set_simd_mode(common::SimdMode::kAvx2);
    EXPECT_EQ(common::simd_mode(), common::SimdMode::kAvx2);
    EXPECT_STREQ(gnn::kernels().isa, "avx2");
    EXPECT_TRUE(gnn::kernels().vectorized);
  } else {
    EXPECT_STREQ(gnn::kernels().isa, "scalar");
    // A forced avx2 request must fail loudly, never silently downgrade.
    EXPECT_THROW(common::set_simd_mode(common::SimdMode::kAvx2), std::runtime_error);
  }
}

TEST(SimdDispatch, CpuInfoJsonHasManifestFields) {
  const auto j = gnn::cpu_info_json();
  for (const char* key :
       {"simd_mode", "simd_isa", "avx2", "fma", "hardware_threads", "cache_line_bytes"}) {
    EXPECT_TRUE(j.contains(key)) << key;
  }
}

// Determinism of the vectorized configuration: with MUXLINK_SIMD=avx2 the
// trainer must be bit-identical across 1/2/8 threads and across repeats,
// exactly like the scalar contract in test_parallel_determinism.
TEST(SimdDeterminism, Avx2TrainingBitIdenticalAcrossThreadCounts) {
  if (gnn::avx2_kernels() == nullptr) {
    GTEST_SKIP() << "host or build lacks AVX2+FMA";
  }
  ModeGuard guard;
  common::set_simd_mode(common::SimdMode::kAvx2);

  circuitgen::CircuitSpec spec;
  spec.seed = 4;
  spec.num_gates = 120;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  const auto nl = circuitgen::generate(spec);
  const auto g = graph::build_circuit_graph(nl);
  const auto links = graph::sample_links(g, {}, {.max_links = 60, .seed = 3});
  graph::SubgraphOptions sopts;
  sopts.hops = 2;
  std::vector<gnn::GraphSample> data;
  for (const auto& ls : links) {
    data.push_back(gnn::encode_subgraph(graph::extract_enclosing_subgraph(g, ls.link, sopts),
                                        sopts.hops, ls.positive ? 1 : 0));
  }
  ASSERT_GT(data.size(), 15u);

  const auto train_at = [&](std::size_t threads) {
    common::set_num_threads(threads);
    gnn::DgcnnConfig cfg;
    cfg.conv_channels = {8, 8, 1};
    cfg.conv1d_channels1 = 4;
    cfg.conv1d_channels2 = 6;
    cfg.conv1d_kernel2 = 3;
    cfg.dense_units = 16;
    cfg.dropout = 0.5;
    cfg.sortpool_k = 10;
    cfg.learning_rate = 1e-3;
    cfg.seed = 11;
    gnn::Dgcnn model(gnn::feature_dim_for_hops(2), cfg);
    gnn::TrainOptions topts;
    topts.epochs = 5;
    topts.batch_size = 10;  // not a multiple of the 4-sample grad chunk
    topts.seed = 2;
    const auto report = gnn::train_link_predictor(model, data, topts);
    std::vector<double> preds;
    for (const auto& s : data) preds.push_back(model.predict(s));
    return std::make_pair(report, preds);
  };

  const auto t1 = train_at(1);
  const auto t1b = train_at(1);  // repeatability within the config
  const auto t2 = train_at(2);
  const auto t8 = train_at(8);
  common::set_num_threads(0);

  for (const auto* other : {&t1b, &t2, &t8}) {
    EXPECT_EQ(t1.first.best_epoch, other->first.best_epoch);
    EXPECT_EQ(t1.first.best_val_accuracy, other->first.best_val_accuracy);
    EXPECT_EQ(t1.first.final_train_loss, other->first.final_train_loss);
    ASSERT_EQ(t1.second.size(), other->second.size());
    for (std::size_t i = 0; i < t1.second.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(t1.second[i]),
                std::bit_cast<std::uint64_t>(other->second[i]))
          << "prediction " << i;
    }
  }
}

}  // namespace
}  // namespace muxlink
