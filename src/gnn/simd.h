// Runtime-dispatched kernel table for the GNN hot path.
//
// Every floating-point loop that dominates training — the three matmul
// shapes, CSR propagation, and the element-wise tanh/dropout/Adam passes —
// goes through one KernelTable of function pointers, resolved once per call
// site from common::simd_mode() and the hardware:
//
//   scalar : the pre-existing blocked/naive kernels (matrix.h) plus plain
//            loops. This is the bit-exact oracle: for a fixed seed and
//            thread count, MUXLINK_SIMD=scalar reproduces the pre-SIMD
//            builds byte for byte (model files, keys, scores).
//   avx2   : 256-bit AVX2+FMA variants (simd_avx2.cpp, compiled with
//            -mavx2 -mfma in its own TU and registered only when both the
//            compiler and the CPU support it).
//
// Numeric-equivalence policy (DESIGN.md §10): kernels that do per-lane
// independent IEEE ops in the scalar order (propagate, propagate_transpose,
// tanh_backward_inplace, add, scale, relu_dropout_backward, adam_update) are
// bit-identical across tables. Kernels that reassociate sums across lanes or
// contract mul+add into FMA (matmul*, csr_matmul*, dot_acc, axpy, sumsq_acc)
// — or replace libm calls with a vector polynomial (tanh) — are
// tolerance-equivalent only; WITHIN one table they are still fully
// deterministic, which is what the reproducibility contract actually
// requires.
//
// The pads-are-zero invariant of Matrix (matrix.h) is what lets the AVX2
// kernels stream whole padded rows and whole padded buffers tail-free; any
// kernel given raw pointers from Matrix::data may read pads but must only
// ever write zeros into them.
#pragma once

#include <cstddef>

#include "common/json.h"
#include "gnn/matrix.h"

namespace muxlink::gnn {

struct GraphSample;

struct KernelTable {
  // Resolved instruction set ("scalar" or "avx2") for manifests and tests.
  const char* isa;
  // True when results are tolerance-equivalent (not bit-identical) to the
  // scalar oracle; tests and docs key off this.
  bool vectorized;

  // out = a * b
  void (*matmul)(const Matrix& a, const Matrix& b, Matrix& out);
  // out += a^T * b
  void (*matmul_at_b_accum)(const Matrix& a, const Matrix& b, Matrix& out);
  // out = a * b^T
  void (*matmul_a_bt)(const Matrix& a, const Matrix& b, Matrix& out);
  // out = a * b^T + bias, bias a 1 × b.rows row broadcast over out's rows.
  // The scalar version chains each element from its bias in ascending k,
  // exactly as dot_acc(bias[j], b.row(j), a.row(i), k) does; in both tables
  // an element's value never depends on how many rows `a` has.
  void (*matmul_a_bt_bias)(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out);
  // out += a^T * b, row-sparse: zero a[k][i] terms are skipped and a row of
  // out whose a-column is all zero is never touched; every other row is
  // loaded and stored once per four terms. Per element the terms add in
  // ascending k, exactly as one axpy(a[k][i], b.row(k), out.row(i), ld) per
  // k would add them.
  void (*matmul_at_b_accum_sparse)(const Matrix& a, const Matrix& b, Matrix& out);

  // Graph-conv layer 0 from the CSR rows of U0 = P·X (propagate_features),
  // over a's rows [row_begin, row_end):
  //   csr_matmul             out[i] = Σ_e a.vals[e]·b[a.cols[e]], out
  //                          already shaped (rows × b.cols); only rows in
  //                          the range are written;
  //   csr_matmul_at_b_accum  out[a.cols[e]] += a.vals[e]·b[i], rows in
  //                          ascending i.
  // Per element each is the same table's dense matmul / matmul_at_b_accum
  // chain over the densified a with its exact-zero terms skipped. A chain
  // starts at +0.0 (or the preloaded out) and adding a skipped 0·b = ±0.0
  // (b finite) changes no bit of any value but -0.0, which a chain holds
  // only after a -0.0 preload or an FMA product underflowing to zero — so
  // both kernels are bit-identical to the dense ones of their own table.
  void (*csr_matmul)(const CsrRows& a, int row_begin, int row_end, const Matrix& b,
                     Matrix& out);
  void (*csr_matmul_at_b_accum)(const CsrRows& a, int row_begin, int row_end, const Matrix& b,
                                Matrix& out);

  // out = D^-1 (A + I) h  /  out = (A + I)^T D^-1 g over the sample's CSR
  // adjacency. Bit-identical across tables (mul and add stay separate ops).
  void (*propagate)(const GraphSample& s, const Matrix& h, Matrix& out);
  void (*propagate_transpose)(const GraphSample& s, const Matrix& g, Matrix& out);

  // x[i] = tanh(x[i]). Safe on padded buffers (tanh(0) == 0).
  void (*tanh_inplace)(double* x, std::size_t n);
  // d[i] *= 1 - h[i]^2. Safe on padded buffers (pads: 0 *= 1).
  void (*tanh_backward_inplace)(double* d, const double* h, std::size_t n);

  // Returns init + sum_i x[i]*y[i]; the scalar version chains from `init`
  // in ascending i, reproducing the pre-SIMD bias-first accumulation.
  double (*dot_acc)(double init, const double* x, const double* y, std::size_t n);
  // y[i] += alpha * x[i]
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  // y[i] += x[i]. Pad-safe (0 += 0).
  void (*add)(double* y, const double* x, std::size_t n);
  // x[i] *= alpha. Pad-safe (0 *= alpha).
  void (*scale)(double* x, double alpha, std::size_t n);
  // Returns init + sum_i x[i]^2 (gradient-norm telemetry). Pad-safe.
  double (*sumsq_acc)(double init, const double* x, std::size_t n);
  // d[i] = h[i] > 0 ? d[i] * mask[i] : 0  (fused ReLU' + inverted dropout).
  void (*relu_dropout_backward)(double* d, const double* h, const double* mask,
                                std::size_t n);
  // One Adam step over a tensor: per element, grad = g[i]*gscale;
  // m/v EMA update; w[i] -= lr * (m/bc1) / (sqrt(v/bc2) + eps); g[i] = 0.
  // beta1/beta2/eps are the fixed 0.9/0.999/1e-8 used by both models.
  // Pad-safe: zero grad/m/v leave a zero weight exactly zero.
  void (*adam_update)(double* w, double* g, double* m, double* v, std::size_t n,
                      double lr, double bc1, double bc2, double gscale);
};

// The scalar oracle table. Always available.
const KernelTable& scalar_kernels();

// The AVX2+FMA table, or nullptr when the binary was built without the AVX2
// TU or the CPU lacks AVX2/FMA.
const KernelTable* avx2_kernels();

// Dispatch for the current common::simd_mode(): kScalar -> scalar table,
// kAvx2 -> AVX2 table (throws std::runtime_error when unavailable so a
// requested configuration is never silently downgraded), kAuto -> AVX2 when
// available else scalar.
const KernelTable& kernels();

// Manifest `extra.cpu` block: requested mode, resolved ISA, feature bits,
// core count, cache line size. Shared by both benches and `attack --report`.
common::Json cpu_info_json();

}  // namespace muxlink::gnn
