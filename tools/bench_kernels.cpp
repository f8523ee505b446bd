// bench_kernels — single-line-JSON microbenchmark for the inner kernels.
//
// bench_pipeline tracks the end-to-end attack; this tool isolates the kernel
// families underneath it so a layout, blocking, or SIMD-dispatch regression
// is visible without retraining anything:
//
//   * enclosing-subgraph extraction (arena fast path vs retained naive
//     reference), reported as links/sec — the ISSUE-2 acceptance criterion
//     is fast/naive >= 1.5x;
//   * CSR propagate / propagate_transpose on a real encoded subgraph,
//     through the dispatched table;
//   * graph-conv layer 0 on that subgraph (32 channels), dense vs from the
//     binary features' CSR rows, through the dispatched table: forward
//     (propagate over the densified X + matmul vs propagate_features +
//     csr_matmul) and the weight gradient (matmul_at_b_accum vs
//     csr_matmul_at_b_accum);
//   * each matmul shape three ways: naive oracle, blocked scalar, and the
//     runtime-dispatched table (gnn::kernels(), which is AVX2 where the
//     host supports it);
//   * the DGCNN slot kernels at the shapes a 4-sample slot runs (k = 45,
//     cat_dim = 97, dense 128×576): matmul_a_bt_bias for the first 1-D conv
//     and for dense-1, and matmul_at_b_accum for the first conv's weight
//     gradient, scalar table vs dispatched;
//   * the element-wise training loops (tanh, Adam) dispatched vs scalar.
//
// Everything runs single-threaded on purpose: these are per-core kernel
// numbers, orthogonal to the thread-pool scaling bench_pipeline measures.
//
//   bench_kernels [--circuit c880] [--hops 3] [--min-ms 300] [--rows 64]
//                 [--simd auto|avx2|scalar] [--report F]
//
// Appends nothing; prints one muxlink.run/v1 manifest line to stdout
// (--report additionally writes it pretty-printed to F). Check the output
// in as BENCH_kernels.json (see EXPERIMENTS.md for the refresh workflow).
//
// Exit-code floors (per resolved ISA, enforced so CI catches a regression
// without parsing JSON; exit 3 on violation):
//   always        extract_speedup          >= 1.5
//   isa == scalar at_b_accum vs naive      >= 1.5   (blocked kernel floor)
//   isa == avx2   at_b_accum vs naive      >= 4.0
//   isa == avx2   tanh vs scalar           >= 2.0   (element-wise floor)
//   isa == avx2   adam vs scalar           >= 1.8   (sqrt/div-bound; the
//                 measured value in BENCH_kernels.json is >= 2x, the exit
//                 floor leaves headroom for timer noise on shared hosts)
//   isa == avx2   layer-0 forward, CSR vs dense          >= 1.3
//   isa == avx2   layer-0 weight gradient, CSR vs dense  >= 1.3
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <vector>

#include "circuitgen/suites.h"
#include "common/cpu_features.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"
#include "gnn/dgcnn.h"
#include "gnn/encoding.h"
#include "gnn/simd.h"
#include "graph/circuit_graph.h"
#include "graph/subgraph.h"
#include "support/graph_sample.h"
#include "support/matrix_naive.h"
#include "support/subgraph_naive.h"
#include "tools/cli_args.h"

namespace {

using namespace muxlink;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Runs `fn` in doubling batches until it has consumed at least `min_seconds`
// of wall clock, then returns seconds per call.
template <typename Fn>
double time_per_call(double min_seconds, Fn&& fn) {
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    const double elapsed = seconds_since(t0);
    if (elapsed >= min_seconds) return elapsed / static_cast<double>(batch);
    batch = elapsed <= 0.0 ? batch * 8 : batch * 2;
  }
}

gnn::Matrix random_matrix(int r, int c, std::mt19937_64& rng) {
  gnn::Matrix m(r, c);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
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

struct KernelTimes {
  double blocked_ns = 0.0;
  double naive_ns = 0.0;
  double dispatch_ns = 0.0;
  double speedup() const { return blocked_ns > 0.0 ? naive_ns / blocked_ns : 0.0; }
  double dispatch_speedup() const {
    return dispatch_ns > 0.0 ? naive_ns / dispatch_ns : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"circuit", "hops", "min-ms", "rows", "report", "simd"});
    if (const auto simd = args.get("simd")) {
      common::set_simd_mode(common::parse_simd_mode(*simd));
    }
    const std::string circuit = args.get_or("circuit", "c880");
    const int hops = static_cast<int>(args.get_long("hops", 3));
    const double min_s = static_cast<double>(args.get_long("min-ms", 300)) / 1000.0;
    const int rows = static_cast<int>(args.get_long("rows", 64));

    common::set_num_threads(1);  // per-core kernel numbers

    const gnn::KernelTable& kn = gnn::kernels();
    const gnn::KernelTable& sc = gnn::scalar_kernels();

    const auto nl = circuitgen::make_benchmark(circuit, 1.0);
    const auto g = graph::build_circuit_graph(nl);
    const auto edges = g.all_edges();
    if (edges.empty()) throw std::runtime_error("bench_kernels: circuit has no edges");
    graph::SubgraphOptions sgopts;
    sgopts.hops = hops;

    // --- extraction: arena fast path vs naive reference --------------------
    // volatile sink defeats dead-code elimination without touching results.
    volatile std::size_t sink = 0;
    const double fast_s = time_per_call(min_s, [&](std::size_t i) {
      sink = sink + graph::extract_enclosing_subgraph(g, edges[i % edges.size()], sgopts).num_nodes();
    });
    const double naive_s = time_per_call(min_s, [&](std::size_t i) {
      sink = sink +
             graph::extract_enclosing_subgraph_naive(g, edges[i % edges.size()], sgopts).num_nodes();
    });
    const double fast_lps = 1.0 / fast_s;
    const double naive_lps = 1.0 / naive_s;

    // --- propagate on a real encoded subgraph (dispatched table) -----------
    const auto sample =
        gnn::encode_subgraph(graph::extract_enclosing_subgraph(g, edges[edges.size() / 2], sgopts),
                             hops, 1);
    const int n = sample.num_nodes();
    std::mt19937_64 rng(1);
    const gnn::Matrix h32 = random_matrix(n, 32, rng);
    gnn::Matrix prop_out;
    const double prop_s =
        time_per_call(min_s, [&](std::size_t) { kn.propagate(sample, h32, prop_out); });
    gnn::Matrix propt_out;
    const double propt_s = time_per_call(
        min_s, [&](std::size_t) { kn.propagate_transpose(sample, h32, propt_out); });

    // --- graph-conv layer 0 on the same sample: dense vs CSR ---------------
    // The dense side is what layer 0 ran before X became column lists. Its
    // own generator keeps the draws below unchanged.
    const int feat = gnn::feature_dim_for_hops(hops);
    std::mt19937_64 l0_rng(2);
    const gnn::Matrix x_dense = gnn::dense_features(sample, feat);
    const gnn::Matrix w0 = random_matrix(feat, 32, l0_rng);
    const gnn::Matrix dh0 = random_matrix(n, 32, l0_rng);
    gnn::Matrix u_dense, h_dense, h_csr(n, 32), gw0(feat, 32);
    gnn::CsrRows u0;
    const double l0_fwd_dense_s = time_per_call(min_s, [&](std::size_t) {
      kn.propagate(sample, x_dense, u_dense);
      kn.matmul(u_dense, w0, h_dense);
    });
    const double l0_fwd_sparse_s = time_per_call(min_s, [&](std::size_t) {
      gnn::propagate_features(sample, u0);
      kn.csr_matmul(u0, 0, n, w0, h_csr);
    });
    const double l0_gw_dense_s =
        time_per_call(min_s, [&](std::size_t) { kn.matmul_at_b_accum(u_dense, dh0, gw0); });
    gw0.zero();
    const double l0_gw_sparse_s =
        time_per_call(min_s, [&](std::size_t) { kn.csr_matmul_at_b_accum(u0, 0, n, dh0, gw0); });
    const double l0_fwd_speedup = l0_fwd_sparse_s > 0.0 ? l0_fwd_dense_s / l0_fwd_sparse_s : 0.0;
    const double l0_gw_speedup = l0_gw_sparse_s > 0.0 ? l0_gw_dense_s / l0_gw_sparse_s : 0.0;

    // --- matmul kernels on DGCNN shapes ------------------------------------
    // Forward conv-1: (rows x feat) * (feat x 32); feat = encoding width.
    const gnn::Matrix a_fwd = random_matrix(rows, feat, rng);
    const gnn::Matrix w_fwd = random_matrix(feat, 32, rng);
    gnn::Matrix out;
    KernelTimes mm;
    mm.blocked_ns =
        1e9 * time_per_call(min_s, [&](std::size_t) { gnn::matmul(a_fwd, w_fwd, out); });
    mm.naive_ns =
        1e9 * time_per_call(min_s, [&](std::size_t) { gnn::matmul_naive(a_fwd, w_fwd, out); });
    mm.dispatch_ns =
        1e9 * time_per_call(min_s, [&](std::size_t) { kn.matmul(a_fwd, w_fwd, out); });

    // Weight gradient: (rows x feat)^T * (rows x 32) accumulated into feat x 32.
    const gnn::Matrix b_grad = random_matrix(rows, 32, rng);
    gnn::Matrix acc(feat, 32);
    KernelTimes atb;
    atb.blocked_ns = 1e9 * time_per_call(
                               min_s, [&](std::size_t) { gnn::matmul_at_b_accum(a_fwd, b_grad, acc); });
    acc.zero();
    atb.naive_ns = 1e9 * time_per_call(min_s, [&](std::size_t) {
                     gnn::matmul_at_b_accum_naive(a_fwd, b_grad, acc);
                   });
    acc.zero();
    atb.dispatch_ns = 1e9 * time_per_call(
                                min_s, [&](std::size_t) { kn.matmul_at_b_accum(a_fwd, b_grad, acc); });

    // Input gradient: (rows x 32) * (feat x 32)^T.
    KernelTimes abt;
    abt.blocked_ns =
        1e9 * time_per_call(min_s, [&](std::size_t) { gnn::matmul_a_bt(b_grad, w_fwd, out); });
    abt.naive_ns = 1e9 * time_per_call(
                             min_s, [&](std::size_t) { gnn::matmul_a_bt_naive(b_grad, w_fwd, out); });
    abt.dispatch_ns =
        1e9 * time_per_call(min_s, [&](std::size_t) { kn.matmul_a_bt(b_grad, w_fwd, out); });

    // --- DGCNN slot kernels (one 4-sample slot) ----------------------------
    // Scalar table vs dispatched, at the real c880 shapes: conv-1 is
    // (4·45 × 97)·(16 × 97)ᵀ + bias, dense-1 (4 × 576)·(128 × 576)ᵀ + bias,
    // and conv-1's weight gradient gK1 (16 × 97) += (4·45 × 16)ᵀ·(4·45 × 97).
    struct SlotTimes {
      double scalar_ns = 0.0;
      double dispatch_ns = 0.0;
      double speedup() const { return dispatch_ns > 0.0 ? scalar_ns / dispatch_ns : 0.0; }
    };
    const auto time_both = [&](auto&& run) {
      SlotTimes t;
      t.scalar_ns = 1e9 * time_per_call(min_s, [&](std::size_t) { run(sc); });
      t.dispatch_ns = 1e9 * time_per_call(min_s, [&](std::size_t) { run(kn); });
      return t;
    };
    constexpr int kSlotRows = 4 * 45, kCatDim = 97, kCh1 = 16, kDense = 128, kFlat = 576;
    const gnn::Matrix slot_s = random_matrix(kSlotRows, kCatDim, rng);
    const gnn::Matrix k1 = random_matrix(kCh1, kCatDim, rng);
    const gnn::Matrix b1 = random_matrix(1, kCh1, rng);
    const SlotTimes conv1 = time_both(
        [&](const gnn::KernelTable& t) { t.matmul_a_bt_bias(slot_s, k1, b1, out); });
    const gnn::Matrix slot_f = random_matrix(4, kFlat, rng);
    const gnn::Matrix w5 = random_matrix(kDense, kFlat, rng);
    const gnn::Matrix b5 = random_matrix(1, kDense, rng);
    const SlotTimes dense1 = time_both(
        [&](const gnn::KernelTable& t) { t.matmul_a_bt_bias(slot_f, w5, b5, out); });
    const gnn::Matrix slot_dc1 = random_matrix(kSlotRows, kCh1, rng);
    gnn::Matrix gk1(kCh1, kCatDim);
    const SlotTimes gk1_t = time_both(
        [&](const gnn::KernelTable& t) { t.matmul_at_b_accum(slot_dc1, slot_s, gk1); });

    // --- element-wise training loops, dispatched vs scalar -----------------
    // Sized like a conv activation block (rows x 128). tanh mutates in place,
    // so each call restores the buffer first; the memcpy cost is identical on
    // both sides of the comparison. Adam refreshes the gradient the same way
    // to keep m/v out of denormal territory during long batches.
    const std::size_t elems = static_cast<std::size_t>(rows) * 128;
    const std::size_t bytes = elems * sizeof(double);
    const gnn::AlignedVec tanh_src = random_vec(elems, rng);
    gnn::AlignedVec buf(elems);
    const double tanh_scalar_s = time_per_call(min_s, [&](std::size_t) {
      std::memcpy(buf.data(), tanh_src.data(), bytes);
      sc.tanh_inplace(buf.data(), elems);
    });
    const double tanh_dispatch_s = time_per_call(min_s, [&](std::size_t) {
      std::memcpy(buf.data(), tanh_src.data(), bytes);
      kn.tanh_inplace(buf.data(), elems);
    });

    // The kernel zeroes g, so m/v decay across calls; refreshing the gradient
    // every 256 calls keeps them far from denormal territory (m decays ~10x
    // slower than that range per refresh window) while keeping the memcpy
    // amortized out of the per-call number.
    const gnn::AlignedVec grad_src = random_vec(elems, rng);
    gnn::AlignedVec w = random_vec(elems, rng);
    gnn::AlignedVec gr(elems), am(elems), av(elems);
    const double adam_scalar_s = time_per_call(min_s, [&](std::size_t i) {
      if (i % 256 == 0) std::memcpy(gr.data(), grad_src.data(), bytes);
      sc.adam_update(w.data(), gr.data(), am.data(), av.data(), elems, 1e-3, 0.9, 0.999, 1.0);
    });
    const double adam_dispatch_s = time_per_call(min_s, [&](std::size_t i) {
      if (i % 256 == 0) std::memcpy(gr.data(), grad_src.data(), bytes);
      kn.adam_update(w.data(), gr.data(), am.data(), av.data(), elems, 1e-3, 0.9, 0.999, 1.0);
    });
    const double tanh_speedup = tanh_dispatch_s > 0.0 ? tanh_scalar_s / tanh_dispatch_s : 0.0;
    const double adam_speedup = adam_dispatch_s > 0.0 ? adam_scalar_s / adam_dispatch_s : 0.0;

    common::RunManifest m = common::make_run_manifest("bench_kernels");
    m.threads = 1;  // per-core kernel numbers by construction
    m.seed = 1;
    m.circuit = circuit;
    m.add_result("extract_links_per_sec", fast_lps);
    m.add_result("extract_naive_links_per_sec", naive_lps);
    m.add_result("extract_speedup", naive_lps > 0.0 ? fast_lps / naive_lps : 0.0);
    m.add_result("propagate_ns", 1e9 * prop_s);
    m.add_result("propagate_transpose_ns", 1e9 * propt_s);
    m.add_result("l0_fwd_dense_ns", 1e9 * l0_fwd_dense_s);
    m.add_result("l0_fwd_sparse_ns", 1e9 * l0_fwd_sparse_s);
    m.add_result("l0_fwd_speedup", l0_fwd_speedup);
    m.add_result("l0_gw_dense_ns", 1e9 * l0_gw_dense_s);
    m.add_result("l0_gw_sparse_ns", 1e9 * l0_gw_sparse_s);
    m.add_result("l0_gw_speedup", l0_gw_speedup);
    m.add_result("matmul_blocked_ns", mm.blocked_ns);
    m.add_result("matmul_naive_ns", mm.naive_ns);
    m.add_result("matmul_speedup", mm.speedup());
    m.add_result("matmul_dispatch_ns", mm.dispatch_ns);
    m.add_result("matmul_dispatch_speedup", mm.dispatch_speedup());
    m.add_result("at_b_accum_blocked_ns", atb.blocked_ns);
    m.add_result("at_b_accum_naive_ns", atb.naive_ns);
    m.add_result("at_b_accum_speedup", atb.speedup());
    m.add_result("at_b_accum_dispatch_ns", atb.dispatch_ns);
    m.add_result("at_b_accum_dispatch_speedup", atb.dispatch_speedup());
    m.add_result("a_bt_blocked_ns", abt.blocked_ns);
    m.add_result("a_bt_naive_ns", abt.naive_ns);
    m.add_result("a_bt_speedup", abt.speedup());
    m.add_result("a_bt_dispatch_ns", abt.dispatch_ns);
    m.add_result("a_bt_dispatch_speedup", abt.dispatch_speedup());
    m.add_result("a_bt_bias_conv1_scalar_ns", conv1.scalar_ns);
    m.add_result("a_bt_bias_conv1_dispatch_ns", conv1.dispatch_ns);
    m.add_result("a_bt_bias_conv1_dispatch_speedup", conv1.speedup());
    m.add_result("a_bt_bias_dense1_scalar_ns", dense1.scalar_ns);
    m.add_result("a_bt_bias_dense1_dispatch_ns", dense1.dispatch_ns);
    m.add_result("a_bt_bias_dense1_dispatch_speedup", dense1.speedup());
    m.add_result("at_b_accum_gk1_scalar_ns", gk1_t.scalar_ns);
    m.add_result("at_b_accum_gk1_dispatch_ns", gk1_t.dispatch_ns);
    m.add_result("at_b_accum_gk1_dispatch_speedup", gk1_t.speedup());
    m.add_result("tanh_scalar_ns", 1e9 * tanh_scalar_s);
    m.add_result("tanh_dispatch_ns", 1e9 * tanh_dispatch_s);
    m.add_result("tanh_dispatch_speedup", tanh_speedup);
    m.add_result("adam_scalar_ns", 1e9 * adam_scalar_s);
    m.add_result("adam_dispatch_ns", 1e9 * adam_dispatch_s);
    m.add_result("adam_dispatch_speedup", adam_speedup);
    common::Json extra = common::Json::object();
    extra["hops"] = hops;
    extra["edges"] = static_cast<std::int64_t>(edges.size());
    extra["subgraph_nodes"] = n;
    extra["matmul_rows"] = rows;
    extra["matmul_feat"] = feat;
    extra["elementwise_elems"] = static_cast<std::int64_t>(elems);
    extra["dispatch_isa"] = std::string(kn.isa);
    extra["cpu"] = gnn::cpu_info_json();
    m.extra = std::move(extra);

    const common::Json j = m.to_json();
    std::cout << j.dump() << "\n";
    if (const auto report = args.get("report")) {
      std::ofstream os(*report);
      if (!os) throw std::runtime_error("cannot write '" + *report + "'");
      os << j.dump_pretty() << "\n";
    }

    // Per-ISA exit floors (header comment documents the table).
    std::vector<std::string> failures;
    if (fast_lps < 1.5 * naive_lps) failures.push_back("extract_speedup < 1.5");
    if (std::string(kn.isa) == "avx2") {
      if (atb.dispatch_speedup() < 4.0) failures.push_back("avx2 at_b_accum_dispatch_speedup < 4.0");
      if (tanh_speedup < 2.0) failures.push_back("avx2 tanh_dispatch_speedup < 2.0");
      if (adam_speedup < 1.8) failures.push_back("avx2 adam_dispatch_speedup < 1.8");
      if (l0_fwd_speedup < 1.3) failures.push_back("avx2 l0_fwd_speedup < 1.3");
      if (l0_gw_speedup < 1.3) failures.push_back("avx2 l0_gw_speedup < 1.3");
    } else {
      if (atb.speedup() < 1.5) failures.push_back("scalar at_b_accum_speedup < 1.5");
    }
    for (const auto& f : failures) std::cerr << "floor violated: " << f << "\n";
    return failures.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
