#include "gnn/simd.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/cpu_features.h"
#include "gnn/dgcnn.h"

namespace muxlink::gnn {

namespace {

// --- scalar kernels ---------------------------------------------------------
// These ARE the pre-SIMD implementations: the matmuls forward to the blocked
// kernels in matrix.h (bit-identical to the naive oracle), and the loop
// kernels reproduce the exact expressions that used to live inline in
// dgcnn.cpp / mlp.cpp / trainer.cpp, in the same evaluation order.

void s_matmul(const Matrix& a, const Matrix& b, Matrix& out) { matmul(a, b, out); }
void s_matmul_at_b_accum(const Matrix& a, const Matrix& b, Matrix& out) {
  matmul_at_b_accum(a, b, out);
}
void s_matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) { matmul_a_bt(a, b, out); }
void s_matmul_a_bt_bias(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out) {
  matmul_a_bt_bias(a, b, bias.row(0), out);
}

// Row-sparse out += a^T b. Active terms go in groups of up to four, in
// ascending k, so each out element sees ((o + t0) + t1) + ... — the sequence
// of per-k axpys it replaces — while the row is loaded and stored once per
// group instead of once per term.
void s_matmul_at_b_accum_sparse(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  const int n = b.cols;
  for (int i = 0; i < out.rows; ++i) {
    double* oi = out.row(i);
    for (int k0 = 0; k0 < a.rows;) {
      double alpha[4];
      const double* x[4];
      int terms = 0;
      for (; k0 < a.rows && terms < 4; ++k0) {
        const double d = a.at(k0, i);
        if (d == 0.0) continue;
        alpha[terms] = d;
        x[terms++] = b.row(k0);
      }
      if (terms == 0) continue;
      for (int j = 0; j < n; ++j) {
        double acc = oi[j];
        for (int t = 0; t < terms; ++t) acc += alpha[t] * x[t][j];
        oi[j] = acc;
      }
    }
  }
}

// out[i] = Σ_e vals[e]·b[cols[e]]: each element chains from 0.0 in
// ascending column, matmul's per-element chain minus its 0·b terms.
void s_csr_matmul(const CsrRows& a, int row_begin, int row_end, const Matrix& b, Matrix& out) {
  assert(row_end <= a.rows() && out.rows == a.rows() && out.cols == b.cols);
  const int n = b.cols;
  for (int i = row_begin; i < row_end; ++i) {
    double* oi = out.row(i);
    for (int j = 0; j < n; ++j) oi[j] = 0.0;
    for (int e = a.offsets[i]; e < a.offsets[i + 1]; ++e) {
      const double v = a.vals[e];
      const double* bk = b.row(a.cols[e]);
      for (int j = 0; j < n; ++j) oi[j] += v * bk[j];
    }
  }
}

// out[cols[e]] += vals[e]·b[i] in ascending i: each element chains from its
// preloaded value, matmul_at_b_accum's chain minus its 0·b terms.
void s_csr_matmul_at_b_accum(const CsrRows& a, int row_begin, int row_end, const Matrix& b,
                             Matrix& out) {
  assert(row_end <= a.rows() && b.rows == a.rows() && out.cols == b.cols);
  const int n = b.cols;
  for (int i = row_begin; i < row_end; ++i) {
    const double* bi = b.row(i);
    for (int e = a.offsets[i]; e < a.offsets[i + 1]; ++e) {
      const double v = a.vals[e];
      double* ok = out.row(a.cols[e]);
      for (int j = 0; j < n; ++j) ok[j] += v * bi[j];
    }
  }
}

// out = D^-1 (A+I) H with row-normalization over {i} ∪ N(i): copy own row,
// add each CSR neighbor front to back, scale by the precomputed inverse
// degree. Summation order is the contract — the AVX2 variant keeps it.
void s_propagate(const GraphSample& s, const Matrix& h, Matrix& out) {
  out.resize_uninit(h.rows, h.cols);
  for (int i = 0; i < h.rows; ++i) {
    double* oi = out.row(i);
    const double* hi = h.row(i);
    for (int c = 0; c < h.cols; ++c) oi[c] = hi[c];
    for (int j : s.neighbors(i)) {
      const double* hj = h.row(j);
      for (int c = 0; c < h.cols; ++c) oi[c] += hj[c];
    }
    const double inv = s.inv_deg[i];
    for (int c = 0; c < h.cols; ++c) oi[c] *= inv;
  }
}

// out = (D^-1 (A+I))^T G: column j gathers inv_deg(i) * G_i over i ∈ {j} ∪ N(j)
// (adjacency is symmetric, so N is its own transpose).
void s_propagate_transpose(const GraphSample& s, const Matrix& g, Matrix& out) {
  out.resize_uninit(g.rows, g.cols);
  for (int j = 0; j < g.rows; ++j) {
    double* oj = out.row(j);
    const double* gj = g.row(j);
    const double invj = s.inv_deg[j];
    for (int c = 0; c < g.cols; ++c) oj[c] = invj * gj[c];
    for (int i : s.neighbors(j)) {
      const double* gi = g.row(i);
      const double invi = s.inv_deg[i];
      for (int c = 0; c < g.cols; ++c) oj[c] += invi * gi[c];
    }
  }
}

void s_tanh_inplace(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

void s_tanh_backward_inplace(double* d, const double* h, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= 1.0 - h[i] * h[i];
}

double s_dot_acc(double init, const double* x, const double* y, std::size_t n) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void s_axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void s_add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void s_scale(double* x, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double s_sumsq_acc(double init, const double* x, std::size_t n) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void s_relu_dropout_backward(double* d, const double* h, const double* mask,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] = h[i] > 0.0 ? d[i] * mask[i] : 0.0;
}

void s_adam_update(double* w, double* g, double* m, double* v, std::size_t n,
                   double lr, double bc1, double bc2, double gscale) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = g[i] * gscale;
    m[i] = b1 * m[i] + (1.0 - b1) * grad;
    v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
    w[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    g[i] = 0.0;
  }
}

constexpr KernelTable kScalarTable = {
    "scalar",
    /*vectorized=*/false,
    s_matmul,
    s_matmul_at_b_accum,
    s_matmul_a_bt,
    s_matmul_a_bt_bias,
    s_matmul_at_b_accum_sparse,
    s_csr_matmul,
    s_csr_matmul_at_b_accum,
    s_propagate,
    s_propagate_transpose,
    s_tanh_inplace,
    s_tanh_backward_inplace,
    s_dot_acc,
    s_axpy,
    s_add,
    s_scale,
    s_sumsq_acc,
    s_relu_dropout_backward,
    s_adam_update,
};

}  // namespace

#if defined(MUXLINK_BUILD_AVX2)
// Defined in simd_avx2.cpp (compiled with -mavx2 -mfma).
const KernelTable& avx2_kernel_table();
#endif

const KernelTable& scalar_kernels() { return kScalarTable; }

const KernelTable* avx2_kernels() {
#if defined(MUXLINK_BUILD_AVX2)
  const auto& f = common::cpu_features();
  if (f.avx2 && f.fma) return &avx2_kernel_table();
#endif
  return nullptr;
}

const KernelTable& kernels() {
  switch (common::simd_mode()) {
    case common::SimdMode::kScalar:
      return scalar_kernels();
    case common::SimdMode::kAvx2: {
      const KernelTable* t = avx2_kernels();
      if (t == nullptr) {
        throw std::runtime_error(
            "SIMD mode 'avx2' requested but unavailable (CPU lacks AVX2+FMA "
            "or binary built without AVX2 support)");
      }
      return *t;
    }
    case common::SimdMode::kAuto:
      break;
  }
  const KernelTable* t = avx2_kernels();
  return t != nullptr ? *t : scalar_kernels();
}

common::Json cpu_info_json() {
  const auto& f = common::cpu_features();
  common::Json cpu = common::Json::object();
  cpu["simd_mode"] = std::string(common::to_string(common::simd_mode()));
  cpu["simd_isa"] = std::string(kernels().isa);
  cpu["avx2"] = f.avx2;
  cpu["fma"] = f.fma;
  cpu["hardware_threads"] = static_cast<std::int64_t>(f.hardware_threads);
  cpu["cache_line_bytes"] = static_cast<std::int64_t>(f.cache_line_bytes);
  return cpu;
}

}  // namespace muxlink::gnn
