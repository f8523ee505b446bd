// Layout-equivalence tests for the CSR/arena fast paths.
//
// The CSR CircuitGraph/Subgraph layout, the epoch-stamped extraction arena,
// and the 4x4 register-blocked matmul kernels all promise BIT-IDENTICAL
// results to the naive reference implementations they replaced (kept as
// test oracles in tests/support/subgraph_naive.h and matrix_naive.h). These
// tests enforce that promise on randomized circuits and matrices, including
// the degenerate shapes the blocking tails must handle.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "circuitgen/generator.h"
#include "gnn/dgcnn.h"
#include "gnn/matrix.h"
#include "graph/circuit_graph.h"
#include "graph/extraction_arena.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "support/graph_sample.h"
#include "support/matrix_naive.h"
#include "support/subgraph_naive.h"

namespace muxlink::graph {
namespace {

using netlist::Netlist;

Netlist random_circuit(std::uint64_t seed, std::size_t gates) {
  circuitgen::CircuitSpec spec;
  spec.seed = seed;
  spec.num_gates = gates;
  return circuitgen::generate(spec);
}

void expect_identical(const Subgraph& fast, const Subgraph& naive) {
  ASSERT_EQ(fast.num_nodes(), naive.num_nodes());
  EXPECT_EQ(fast.global, naive.global);
  EXPECT_EQ(fast.type, naive.type);
  EXPECT_EQ(fast.drnl, naive.drnl);
  EXPECT_EQ(fast.adj_offsets, naive.adj_offsets);
  EXPECT_EQ(fast.adj_neighbors, naive.adj_neighbors);
}

// --- CSR CircuitGraph -------------------------------------------------------

TEST(CsrCircuitGraph, NeighborsAreSortedSymmetricAndMatchHasEdge) {
  const Netlist nl = random_circuit(71, 300);
  const CircuitGraph g = build_circuit_graph(nl);
  std::size_t directed = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto nb = g.neighbors(n);
    EXPECT_EQ(nb.size(), g.degree(n));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (std::size_t i = 1; i < nb.size(); ++i) EXPECT_NE(nb[i - 1], nb[i]);  // deduped
    for (NodeId v : nb) {
      EXPECT_NE(v, n);  // no self loops
      EXPECT_TRUE(g.has_edge(n, v));
      EXPECT_TRUE(g.has_edge(v, n));  // symmetric
    }
    directed += nb.size();
  }
  EXPECT_EQ(directed, 2 * g.num_edges());
  // all_edges() emits each undirected edge exactly once with u < v.
  const auto edges = g.all_edges();
  EXPECT_EQ(edges.size(), g.num_edges());
  for (const Link& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(CsrCircuitGraph, NeighborsThrowsOutOfRange) {
  const Netlist nl = random_circuit(72, 50);
  const CircuitGraph g = build_circuit_graph(nl);
  EXPECT_THROW(g.neighbors(static_cast<NodeId>(g.num_nodes())), std::out_of_range);
}

// --- arena extraction vs naive reference ------------------------------------

TEST(ArenaExtraction, MatchesNaiveOnRandomCircuitsAndOptions) {
  std::mt19937_64 rng(2024);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Netlist nl = random_circuit(seed, 250 + 50 * seed);
    const CircuitGraph g = build_circuit_graph(nl);
    const auto edges = g.all_edges();
    ASSERT_FALSE(edges.empty());
    for (int h : {1, 2, 3}) {
      for (std::size_t max_nodes : {std::size_t{0}, std::size_t{15}}) {
        for (bool remove : {true, false}) {
          SubgraphOptions opts;
          opts.hops = h;
          opts.max_nodes = max_nodes;
          opts.remove_target_edge = remove;
          for (int trial = 0; trial < 8; ++trial) {
            // Mix of positive links (edges) and random non-edges.
            Link target;
            if (trial % 2 == 0) {
              target = edges[rng() % edges.size()];
            } else {
              target.u = static_cast<NodeId>(rng() % g.num_nodes());
              do {
                target.v = static_cast<NodeId>(rng() % g.num_nodes());
              } while (target.v == target.u);
            }
            expect_identical(extract_enclosing_subgraph(g, target, opts),
                             extract_enclosing_subgraph_naive(g, target, opts));
          }
        }
      }
    }
  }
}

TEST(ArenaExtraction, NodeSubgraphMatchesNaive) {
  const Netlist nl = random_circuit(9, 300);
  const CircuitGraph g = build_circuit_graph(nl);
  for (int h : {1, 2, 3}) {
    for (std::size_t max_nodes : {std::size_t{0}, std::size_t{10}}) {
      SubgraphOptions opts;
      opts.hops = h;
      opts.max_nodes = max_nodes;
      for (NodeId c = 0; c < g.num_nodes(); c += 13) {
        expect_identical(extract_node_subgraph(g, c, opts),
                         extract_node_subgraph_naive(g, c, opts));
      }
    }
  }
}

TEST(ArenaExtraction, RepeatedUseOfOneThreadArenaStaysIdentical) {
  // Back-to-back extractions reuse the same thread-local arena; stale epochs
  // must never leak between targets (also covered implicitly above, but this
  // hammers a single pair of alternating targets).
  const Netlist nl = random_circuit(33, 200);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto edges = g.all_edges();
  const Subgraph a0 = extract_enclosing_subgraph_naive(g, edges[0]);
  const Subgraph b0 = extract_enclosing_subgraph_naive(g, edges[1]);
  for (int i = 0; i < 50; ++i) {
    expect_identical(extract_enclosing_subgraph(g, edges[0]), a0);
    expect_identical(extract_enclosing_subgraph(g, edges[1]), b0);
  }
}

TEST(ArenaExtraction, ArenaEpochWrapResetsStamps) {
  ExtractionArena arena;
  arena.begin(4);
  arena.stamp_u[2] = arena.epoch;
  arena.epoch = 0xffffffffu;  // force the wrap on the next begin()
  arena.begin(4);
  EXPECT_EQ(arena.epoch, 1u);
  EXPECT_EQ(arena.stamp_u[2], 0u);  // stale stamp cannot alias the new epoch
}

// --- DRNL helper ------------------------------------------------------------

TEST(DrnlLabel, SharedHelperIsBoundedByMaxLabel) {
  for (int hops : {1, 2, 3, 4, 6}) {
    const int clamp = 2 * hops;
    int seen_max = 0;
    for (int a = 0; a <= clamp; ++a) {
      for (int b = 0; b <= clamp; ++b) {
        const int f = drnl_label(a, b);
        EXPECT_GE(f, 0);
        EXPECT_LE(f, max_drnl_label(hops)) << "a=" << a << " b=" << b;
        seen_max = std::max(seen_max, f);
      }
    }
    // The bound is tight: it is attained at a = b = 2*hops.
    EXPECT_EQ(seen_max, max_drnl_label(hops));
  }
  // Spot values from the paper's Eq. 3.
  EXPECT_EQ(drnl_label(1, 1), 2);
  EXPECT_EQ(drnl_label(1, 3), 4);
  EXPECT_EQ(drnl_label(2, 2), 5);
}

TEST(DrnlLabel, ExtractedLabelsRespectTheBound) {
  const Netlist nl = random_circuit(12, 300);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto edges = g.all_edges();
  for (int h : {1, 2, 3}) {
    SubgraphOptions opts;
    opts.hops = h;
    for (std::size_t i = 0; i < edges.size(); i += 11) {
      const Subgraph sg = extract_enclosing_subgraph(g, edges[i], opts);
      for (int lbl : sg.drnl) {
        EXPECT_GE(lbl, 0);
        EXPECT_LE(lbl, max_drnl_label(h));
      }
    }
  }
}

}  // namespace
}  // namespace muxlink::graph

namespace muxlink::gnn {
namespace {

Matrix random_matrix(int r, int c, std::mt19937_64& rng, double sparsity = 0.0) {
  Matrix m(r, c);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m.at(i, j) = unit(rng) < sparsity ? 0.0 : u(rng);
  }
  return m;
}

void expect_bits_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  for (int i = 0; i < a.rows; ++i) {
    for (int j = 0; j < a.cols; ++j) {
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "element (" << i << "," << j << ")";
    }
  }
}

// Shapes covering empty, 1x1, sub-block, exact-block, tall, wide, and the
// DGCNN's real (n x feat) * (feat x 32) shapes.
struct Shape {
  int m, k, n;
};
const Shape kShapes[] = {{0, 0, 0}, {1, 1, 1}, {2, 3, 2},  {4, 4, 4},   {5, 7, 3},
                         {3, 2, 9}, {8, 1, 8}, {1, 16, 1}, {37, 46, 32}, {64, 32, 1}};

TEST(BlockedKernels, MatmulMatchesNaiveBitForBit) {
  std::mt19937_64 rng(7);
  for (const Shape& s : kShapes) {
    for (double sparsity : {0.0, 0.6}) {
      const Matrix a = random_matrix(s.m, s.k, rng, sparsity);
      const Matrix b = random_matrix(s.k, s.n, rng);
      Matrix fast, naive;
      matmul(a, b, fast);
      matmul_naive(a, b, naive);
      expect_bits_equal(fast, naive);
    }
  }
}

TEST(BlockedKernels, MatmulAtBAccumMatchesNaiveBitForBit) {
  std::mt19937_64 rng(8);
  for (const Shape& s : kShapes) {
    for (double sparsity : {0.0, 0.6}) {
      const Matrix a = random_matrix(s.m, s.k, rng, sparsity);  // out = a^T * b
      const Matrix b = random_matrix(s.m, s.n, rng);
      // Accumulation starts from a shared nonzero state so the preload path
      // is exercised, not just the zero-start path.
      Matrix fast = random_matrix(s.k, s.n, rng);
      Matrix naive = fast;
      matmul_at_b_accum(a, b, fast);
      matmul_at_b_accum_naive(a, b, naive);
      expect_bits_equal(fast, naive);
    }
  }
}

TEST(BlockedKernels, MatmulABtMatchesNaiveBitForBit) {
  std::mt19937_64 rng(9);
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.n, s.k, rng);
    Matrix fast, naive;
    matmul_a_bt(a, b, fast);
    matmul_a_bt_naive(a, b, naive);
    expect_bits_equal(fast, naive);
  }
}

TEST(BlockedKernels, OutputsAreFullyOverwrittenDespiteUninitResize) {
  // Poison the output with a larger garbage-filled shape, then shrink into
  // it: every element of the result must come from the kernel, not the
  // previous contents (this is the resize_uninit contract).
  std::mt19937_64 rng(10);
  Matrix fast(50, 50);
  for (double& x : fast.data) x = 1e300;
  const Matrix a = random_matrix(6, 5, rng);
  const Matrix b = random_matrix(5, 7, rng);
  Matrix naive;
  matmul(a, b, fast);
  matmul_naive(a, b, naive);
  expect_bits_equal(fast, naive);
}

TEST(MatrixResize, UninitKeepsShapeAndGrowsZeroed) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = 4;
  m.resize_uninit(2, 2);
  EXPECT_EQ(m.at(0, 0), 1);  // same shape: untouched
  EXPECT_EQ(m.at(1, 1), 4);
  m.resize_uninit(3, 2);
  EXPECT_EQ(m.rows, 3);
  EXPECT_EQ(m.cols, 2);
  ASSERT_EQ(m.data.size(), static_cast<std::size_t>(3 * m.ld));
  EXPECT_EQ(m.at(2, 0), 0.0);  // grown tail is value-initialized
  EXPECT_EQ(m.at(2, 1), 0.0);
  m.resize(2, 2);
  EXPECT_EQ(m.at(0, 0), 0.0);  // resize() still zero-fills
  EXPECT_EQ(m.at(1, 1), 0.0);
}

TEST(MatrixLayout, StorageIsAlignedAndPadsStayZero) {
  // The SIMD contract (DESIGN.md §10): 32-byte-aligned rows, ld a multiple
  // of the lane count, and zero pad lanes across resize paths.
  Matrix m(5, 7);
  EXPECT_EQ(m.ld, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data.data()) % kSimdAlign, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(3)) % kSimdAlign, 0u);
  for (int i = 0; i < m.rows; ++i) {
    for (int j = 0; j < m.cols; ++j) m.at(i, j) = 1e300;
  }
  // Reshape moving previously-logical (now garbage) values into pad slots.
  m.resize_uninit(7, 5);
  for (int i = 0; i < m.rows; ++i) {
    const double* p = m.row(i);
    for (int j = m.cols; j < m.ld; ++j) EXPECT_EQ(p[j], 0.0) << "pad (" << i << "," << j << ")";
  }
  std::mt19937_64 rng(11);
  m.glorot(rng);
  for (int i = 0; i < m.rows; ++i) {
    const double* p = m.row(i);
    for (int j = m.cols; j < m.ld; ++j) EXPECT_EQ(p[j], 0.0);
  }
}

TEST(GraphSampleCsr, SetAdjacencyBuildsOffsetsAndInverseDegrees) {
  GraphSample g;
  set_adjacency(g, {{1, 2}, {0}, {0}});
  EXPECT_EQ(g.num_nodes(), 3);
  ASSERT_EQ(g.nbr_offsets, (std::vector<int>{0, 2, 3, 4}));
  EXPECT_EQ(g.nbr, (std::vector<int>{1, 2, 0, 0}));
  ASSERT_EQ(g.inv_deg.size(), 3u);
  EXPECT_DOUBLE_EQ(g.inv_deg[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(g.inv_deg[1], 0.5);
  const auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<int>(n0.begin(), n0.end()), (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace muxlink::gnn
