// AVX2+FMA kernel table. Compiled in its own TU with -mavx2 -mfma
// -ffp-contract=off (CMake gates this on compiler support for x86); nothing
// here runs unless the CPU also reports AVX2+FMA at runtime (simd.cpp).
//
// Equivalence classes vs the scalar oracle (DESIGN.md §10):
//   bit-identical : propagate, propagate_transpose, tanh_backward_inplace,
//                   add, scale, relu_dropout_backward, adam_update — these
//                   perform the scalar op sequence per element with no FMA
//                   contraction and no cross-lane reassociation.
//   tolerance     : matmul / matmul_at_b_accum / matmul_a_bt /
//                   matmul_a_bt_bias / matmul_at_b_accum_sparse /
//                   csr_matmul / csr_matmul_at_b_accum / dot_acc /
//                   sumsq_acc (FMA + 4-lane partial sums reassociate the
//                   reduction), tanh (Cephes-style polynomial exp instead
//                   of libm). All are still deterministic for fixed
//                   inputs — reproducibility within the avx2 configuration
//                   is exact, as test_simd asserts.
//
// Pads: every Matrix row stride is a multiple of 4 doubles with zero pad
// lanes, so row-streaming loops below run to `ld` tail-free; products and
// sums over pads are exactly 0.0 and writing them back preserves the
// invariant. Raw-pointer kernels (dot_acc, axpy, ...) take logical lengths
// and use unaligned loads plus scalar tails, because they also run over
// plain std::vector activations.
#include <cassert>
#include <cmath>
#include <cstddef>

#include "gnn/dgcnn.h"
#include "gnn/matrix.h"
#include "gnn/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2.cpp must be compiled with -mavx2 -mfma (see src/gnn/CMakeLists.txt)"
#endif

#include <immintrin.h>

namespace muxlink::gnn {

namespace {

inline double hsum_pd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

// --- vector exp / tanh ------------------------------------------------------
// Cephes exp() scheme: n = round(x·log2 e); r = x − n·ln2 (hi/lo split);
// exp(r) = 1 + 2·P(r²)·r / (Q(r²) − P(r²)·r); scale by 2ⁿ via the exponent
// bits. ~1 ulp over the reduced range, well inside the 1e-12 test tolerance.

inline __m256d exp_pd(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  // Clamp so the 2^n exponent construction below cannot wrap; exp(±708) is
  // the edge of double range anyway.
  x = _mm256_max_pd(_mm256_set1_pd(-708.0), _mm256_min_pd(_mm256_set1_pd(708.0), x));
  const __m256d nd =
      _mm256_round_pd(_mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(nd, ln2_hi, x);
  r = _mm256_fnmadd_pd(nd, ln2_lo, r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(9.99999999999999999910e-1));
  const __m256d px = _mm256_mul_pd(r, p);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.0));
  const __m256d w = _mm256_div_pd(px, _mm256_sub_pd(q, px));
  const __m256d e = _mm256_fmadd_pd(_mm256_set1_pd(2.0), w, _mm256_set1_pd(1.0));
  // 2^n: n is integral and within [-1022, 1022] after the clamp.
  const __m128i n32 = _mm256_cvtpd_epi32(nd);
  __m256i n64 = _mm256_cvtepi32_epi64(n32);
  n64 = _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(n64));
}

inline __m256d tanh_pd(__m256d x) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d a = _mm256_andnot_pd(sign_mask, x);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d z = _mm256_mul_pd(a, _mm256_set1_pd(-2.0));

  // General path: tanh(a) = (1 − e^{−2a}) / (1 + e^{−2a}).
  const __m256d u = exp_pd(z);
  const __m256d t_gen = _mm256_div_pd(_mm256_sub_pd(one, u), _mm256_add_pd(one, u));

  // Small path (a < 0.17, where 1 − e^{−2a} cancels): the Cephes reduction
  // has n = 0 here, so expm1(z) = 2·P·z/(Q − P·z) is cancellation-free and
  // tanh(a) = −expm1(z) / (2 + expm1(z)).
  const __m256d z2 = _mm256_mul_pd(z, z);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, z2, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, z2, _mm256_set1_pd(9.99999999999999999910e-1));
  const __m256d pz = _mm256_mul_pd(z, p);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, z2, two);
  const __m256d em = _mm256_mul_pd(two, _mm256_div_pd(pz, _mm256_sub_pd(q, pz)));
  const __m256d t_small =
      _mm256_div_pd(_mm256_sub_pd(_mm256_setzero_pd(), em), _mm256_add_pd(two, em));

  const __m256d small = _mm256_cmp_pd(a, _mm256_set1_pd(0.17), _CMP_LT_OQ);
  __m256d t = _mm256_blendv_pd(t_gen, t_small, small);
  // Saturation: tanh(a) rounds to 1.0 for a ≥ 19.0625.
  const __m256d big = _mm256_cmp_pd(a, _mm256_set1_pd(19.0625), _CMP_GE_OQ);
  t = _mm256_blendv_pd(t, one, big);
  return _mm256_or_pd(t, sign);
}


// --- matmul kernels ---------------------------------------------------------

// out = a·b. Streams whole padded rows of b/out (out.ld == b.ld and the pad
// products are 0·x = 0, so the stored pads stay zero). 4 a-rows at a time,
// 8 output columns per inner tile, k innermost with broadcast a-elements.
void v_matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.rows);
  out.resize_uninit(a.rows, b.cols);
  const int m = a.rows, kk = a.cols, ldn = out.ld;
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a.row(i);
    const double* a1 = a.row(i + 1);
    const double* a2 = a.row(i + 2);
    const double* a3 = a.row(i + 3);
    int j = 0;
    for (; j + 8 <= ldn; j += 8) {
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
      __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
      for (int k = 0; k < kk; ++k) {
        const double* bk = b.row(k) + j;
        const __m256d b0 = _mm256_load_pd(bk);
        const __m256d b1 = _mm256_load_pd(bk + 4);
        const __m256d va0 = _mm256_broadcast_sd(a0 + k);
        const __m256d va1 = _mm256_broadcast_sd(a1 + k);
        const __m256d va2 = _mm256_broadcast_sd(a2 + k);
        const __m256d va3 = _mm256_broadcast_sd(a3 + k);
        c00 = _mm256_fmadd_pd(va0, b0, c00);
        c01 = _mm256_fmadd_pd(va0, b1, c01);
        c10 = _mm256_fmadd_pd(va1, b0, c10);
        c11 = _mm256_fmadd_pd(va1, b1, c11);
        c20 = _mm256_fmadd_pd(va2, b0, c20);
        c21 = _mm256_fmadd_pd(va2, b1, c21);
        c30 = _mm256_fmadd_pd(va3, b0, c30);
        c31 = _mm256_fmadd_pd(va3, b1, c31);
      }
      _mm256_store_pd(out.row(i) + j, c00);
      _mm256_store_pd(out.row(i) + j + 4, c01);
      _mm256_store_pd(out.row(i + 1) + j, c10);
      _mm256_store_pd(out.row(i + 1) + j + 4, c11);
      _mm256_store_pd(out.row(i + 2) + j, c20);
      _mm256_store_pd(out.row(i + 2) + j + 4, c21);
      _mm256_store_pd(out.row(i + 3) + j, c30);
      _mm256_store_pd(out.row(i + 3) + j + 4, c31);
    }
    for (; j < ldn; j += 4) {
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (int k = 0; k < kk; ++k) {
        const __m256d bk = _mm256_load_pd(b.row(k) + j);
        c0 = _mm256_fmadd_pd(_mm256_broadcast_sd(a0 + k), bk, c0);
        c1 = _mm256_fmadd_pd(_mm256_broadcast_sd(a1 + k), bk, c1);
        c2 = _mm256_fmadd_pd(_mm256_broadcast_sd(a2 + k), bk, c2);
        c3 = _mm256_fmadd_pd(_mm256_broadcast_sd(a3 + k), bk, c3);
      }
      _mm256_store_pd(out.row(i) + j, c0);
      _mm256_store_pd(out.row(i + 1) + j, c1);
      _mm256_store_pd(out.row(i + 2) + j, c2);
      _mm256_store_pd(out.row(i + 3) + j, c3);
    }
  }
  for (; i < m; ++i) {
    const double* ai = a.row(i);
    for (int j = 0; j < ldn; j += 4) {
      __m256d c = _mm256_setzero_pd();
      for (int k = 0; k < kk; ++k) {
        c = _mm256_fmadd_pd(_mm256_broadcast_sd(ai + k), _mm256_load_pd(b.row(k) + j), c);
      }
      _mm256_store_pd(out.row(i) + j, c);
    }
  }
}

// out += aᵀ·b with a: kk×m, b: kk×n, out: m×n. Accumulators preload the
// existing out tile (pads preload 0 and only ever gain 0·x, staying 0). Same
// 4-row × 8-column tile as v_matmul: per k, two b loads and four broadcasts
// feed eight FMAs. Column strips are the outer loop, so one strip of a tall
// b (a slot's stacked frames) stays in L1 across all row blocks. Every
// element is one FMA chain in ascending k whichever tile it lands in.
void v_matmul_at_b_accum(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  const int m = a.cols, kk = a.rows, ldn = out.ld;
  const int m4 = m / 4 * 4;
  int j = 0;
  for (; j + 8 <= ldn; j += 8) {
    for (int i = 0; i < m4; i += 4) {
      double* o0 = out.row(i);
      double* o1 = out.row(i + 1);
      double* o2 = out.row(i + 2);
      double* o3 = out.row(i + 3);
      __m256d c00 = _mm256_load_pd(o0 + j), c01 = _mm256_load_pd(o0 + j + 4);
      __m256d c10 = _mm256_load_pd(o1 + j), c11 = _mm256_load_pd(o1 + j + 4);
      __m256d c20 = _mm256_load_pd(o2 + j), c21 = _mm256_load_pd(o2 + j + 4);
      __m256d c30 = _mm256_load_pd(o3 + j), c31 = _mm256_load_pd(o3 + j + 4);
      for (int k = 0; k < kk; ++k) {
        const double* ak = a.row(k) + i;
        const double* bk = b.row(k) + j;
        const __m256d b0 = _mm256_load_pd(bk);
        const __m256d b1 = _mm256_load_pd(bk + 4);
        const __m256d va0 = _mm256_broadcast_sd(ak);
        const __m256d va1 = _mm256_broadcast_sd(ak + 1);
        const __m256d va2 = _mm256_broadcast_sd(ak + 2);
        const __m256d va3 = _mm256_broadcast_sd(ak + 3);
        c00 = _mm256_fmadd_pd(va0, b0, c00);
        c01 = _mm256_fmadd_pd(va0, b1, c01);
        c10 = _mm256_fmadd_pd(va1, b0, c10);
        c11 = _mm256_fmadd_pd(va1, b1, c11);
        c20 = _mm256_fmadd_pd(va2, b0, c20);
        c21 = _mm256_fmadd_pd(va2, b1, c21);
        c30 = _mm256_fmadd_pd(va3, b0, c30);
        c31 = _mm256_fmadd_pd(va3, b1, c31);
      }
      _mm256_store_pd(o0 + j, c00);
      _mm256_store_pd(o0 + j + 4, c01);
      _mm256_store_pd(o1 + j, c10);
      _mm256_store_pd(o1 + j + 4, c11);
      _mm256_store_pd(o2 + j, c20);
      _mm256_store_pd(o2 + j + 4, c21);
      _mm256_store_pd(o3 + j, c30);
      _mm256_store_pd(o3 + j + 4, c31);
    }
  }
  for (; j < ldn; j += 4) {
    for (int i = 0; i < m4; i += 4) {
      double* o0 = out.row(i);
      double* o1 = out.row(i + 1);
      double* o2 = out.row(i + 2);
      double* o3 = out.row(i + 3);
      __m256d c0 = _mm256_load_pd(o0 + j);
      __m256d c1 = _mm256_load_pd(o1 + j);
      __m256d c2 = _mm256_load_pd(o2 + j);
      __m256d c3 = _mm256_load_pd(o3 + j);
      for (int k = 0; k < kk; ++k) {
        const double* ak = a.row(k) + i;
        const __m256d bk = _mm256_load_pd(b.row(k) + j);
        c0 = _mm256_fmadd_pd(_mm256_broadcast_sd(ak), bk, c0);
        c1 = _mm256_fmadd_pd(_mm256_broadcast_sd(ak + 1), bk, c1);
        c2 = _mm256_fmadd_pd(_mm256_broadcast_sd(ak + 2), bk, c2);
        c3 = _mm256_fmadd_pd(_mm256_broadcast_sd(ak + 3), bk, c3);
      }
      _mm256_store_pd(o0 + j, c0);
      _mm256_store_pd(o1 + j, c1);
      _mm256_store_pd(o2 + j, c2);
      _mm256_store_pd(o3 + j, c3);
    }
  }
  for (int i = m4; i < m; ++i) {
    double* oi = out.row(i);
    for (int j = 0; j < ldn; j += 4) {
      __m256d c = _mm256_load_pd(oi + j);
      for (int k = 0; k < kk; ++k) {
        c = _mm256_fmadd_pd(_mm256_broadcast_sd(a.row(k) + i), _mm256_load_pd(b.row(k) + j), c);
      }
      _mm256_store_pd(oi + j, c);
    }
  }
}

// o[j] += Σ_t alpha[t]·x[t][j] over a padded row, the T terms chained in
// order (one FMA each, as v_axpy would) with alphas and row pointers held in
// registers.
template <int T>
inline void fma_terms(double* o, const double* alpha, const double* const* x, int ldn) {
  __m256d va[T];
  const double* xr[T];
  for (int t = 0; t < T; ++t) {
    va[t] = _mm256_set1_pd(alpha[t]);
    xr[t] = x[t];
  }
  for (int j = 0; j < ldn; j += 4) {
    __m256d c = _mm256_load_pd(o + j);
    for (int t = 0; t < T; ++t) c = _mm256_fmadd_pd(va[t], _mm256_load_pd(xr[t] + j), c);
    _mm256_store_pd(o + j, c);
  }
}

// Row-sparse out += aᵀ·b: per out row, the nonzero a[k][i] go in groups of
// up to four (ascending k) and each group is one load/FMA-chain/store pass
// over the row — per element the same FMA sequence as one v_axpy per term.
void v_matmul_at_b_accum_sparse(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  const int ldn = out.ld;
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
      switch (terms) {
        case 4: fma_terms<4>(oi, alpha, x, ldn); break;
        case 3: fma_terms<3>(oi, alpha, x, ldn); break;
        case 2: fma_terms<2>(oi, alpha, x, ldn); break;
        case 1: fma_terms<1>(oi, alpha, x, ldn); break;
        default: break;
      }
    }
  }
}

// out[i] = Σ_e vals[e]·b[cols[e]] over whole padded rows, 16 columns (four
// accumulators) per pass: each element is v_matmul's FMA chain from
// setzero in ascending k with its 0·b terms left out.
void v_csr_matmul(const CsrRows& a, int row_begin, int row_end, const Matrix& b, Matrix& out) {
  assert(row_end <= a.rows() && out.rows == a.rows() && out.cols == b.cols);
  const int ldn = out.ld;
  for (int i = row_begin; i < row_end; ++i) {
    double* oi = out.row(i);
    const int e0 = a.offsets[i], e1 = a.offsets[i + 1];
    int j = 0;
    for (; j + 16 <= ldn; j += 16) {
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (int e = e0; e < e1; ++e) {
        const __m256d v = _mm256_broadcast_sd(&a.vals[e]);
        const double* bk = b.row(a.cols[e]) + j;
        c0 = _mm256_fmadd_pd(v, _mm256_load_pd(bk), c0);
        c1 = _mm256_fmadd_pd(v, _mm256_load_pd(bk + 4), c1);
        c2 = _mm256_fmadd_pd(v, _mm256_load_pd(bk + 8), c2);
        c3 = _mm256_fmadd_pd(v, _mm256_load_pd(bk + 12), c3);
      }
      _mm256_store_pd(oi + j, c0);
      _mm256_store_pd(oi + j + 4, c1);
      _mm256_store_pd(oi + j + 8, c2);
      _mm256_store_pd(oi + j + 12, c3);
    }
    for (; j < ldn; j += 4) {
      __m256d c = _mm256_setzero_pd();
      for (int e = e0; e < e1; ++e) {
        c = _mm256_fmadd_pd(_mm256_broadcast_sd(&a.vals[e]), _mm256_load_pd(b.row(a.cols[e]) + j),
                            c);
      }
      _mm256_store_pd(oi + j, c);
    }
  }
}

// out[cols[e]] += vals[e]·b[i], rows in ascending i, 16 columns of b[i] held
// in registers per pass: each element is v_matmul_at_b_accum's FMA chain
// from the preloaded value with its 0·b terms left out.
void v_csr_matmul_at_b_accum(const CsrRows& a, int row_begin, int row_end, const Matrix& b,
                             Matrix& out) {
  assert(row_end <= a.rows() && b.rows == a.rows() && out.cols == b.cols);
  const int ldn = out.ld;
  for (int i = row_begin; i < row_end; ++i) {
    const double* bi = b.row(i);
    const int e0 = a.offsets[i], e1 = a.offsets[i + 1];
    int j = 0;
    for (; j + 16 <= ldn; j += 16) {
      const __m256d b0 = _mm256_load_pd(bi + j), b1 = _mm256_load_pd(bi + j + 4);
      const __m256d b2 = _mm256_load_pd(bi + j + 8), b3 = _mm256_load_pd(bi + j + 12);
      for (int e = e0; e < e1; ++e) {
        const __m256d v = _mm256_broadcast_sd(&a.vals[e]);
        double* ok = out.row(a.cols[e]) + j;
        _mm256_store_pd(ok, _mm256_fmadd_pd(v, b0, _mm256_load_pd(ok)));
        _mm256_store_pd(ok + 4, _mm256_fmadd_pd(v, b1, _mm256_load_pd(ok + 4)));
        _mm256_store_pd(ok + 8, _mm256_fmadd_pd(v, b2, _mm256_load_pd(ok + 8)));
        _mm256_store_pd(ok + 12, _mm256_fmadd_pd(v, b3, _mm256_load_pd(ok + 12)));
      }
    }
    for (; j < ldn; j += 4) {
      const __m256d bj = _mm256_load_pd(bi + j);
      for (int e = e0; e < e1; ++e) {
        double* ok = out.row(a.cols[e]) + j;
        _mm256_store_pd(ok, _mm256_fmadd_pd(_mm256_broadcast_sd(&a.vals[e]), bj, _mm256_load_pd(ok)));
      }
    }
  }
}

// out = a·bᵀ. Both operands stream contiguously along k over the full padded
// row (pad lanes of a and b are zero on both sides, so pad products vanish);
// the four per-j accumulators are then transpose-reduced into one vector.
void v_matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.cols);
  out.resize_uninit(a.rows, b.rows);
  const int m = a.rows, n = b.rows, ldk = a.ld;
  for (int i = 0; i < m; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b.row(j);
      const double* b1 = b.row(j + 1);
      const double* b2 = b.row(j + 2);
      const double* b3 = b.row(j + 3);
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        const __m256d va = _mm256_load_pd(ai + k);
        c0 = _mm256_fmadd_pd(va, _mm256_load_pd(b0 + k), c0);
        c1 = _mm256_fmadd_pd(va, _mm256_load_pd(b1 + k), c1);
        c2 = _mm256_fmadd_pd(va, _mm256_load_pd(b2 + k), c2);
        c3 = _mm256_fmadd_pd(va, _mm256_load_pd(b3 + k), c3);
      }
      // Transpose-reduce {Σc0, Σc1, Σc2, Σc3} into one vector.
      const __m256d s01 = _mm256_hadd_pd(c0, c1);
      const __m256d s23 = _mm256_hadd_pd(c2, c3);
      const __m256d blended = _mm256_blend_pd(s01, s23, 0b1100);
      const __m256d crossed = _mm256_permute2f128_pd(s01, s23, 0x21);
      _mm256_storeu_pd(oi + j, _mm256_add_pd(blended, crossed));
    }
    for (; j < n; ++j) {
      const double* bj = b.row(j);
      __m256d c = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        c = _mm256_fmadd_pd(_mm256_load_pd(ai + k), _mm256_load_pd(bj + k), c);
      }
      oi[j] = hsum_pd(c);
    }
  }
}

// One accumulator reduced as (l0 + l1) + (l2 + l3) — the association
// reduce_pair gives each of its two lanes.
inline double reduce_one(__m256d c) {
  const __m128d s = _mm_hadd_pd(_mm256_castpd256_pd128(c), _mm256_extractf128_pd(c, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// {reduce_one(c0), reduce_one(c1)} in one hadd + add.
inline __m128d reduce_pair(__m256d c0, __m256d c1) {
  const __m256d h = _mm256_hadd_pd(c0, c1);  // {c0 01, c1 01, c0 23, c1 23}
  return _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
}

// out = a·bᵀ + bias. Tiles of 4 a-rows × 2 b-rows (eight accumulators, six
// loads per k-step), so a slot's few dense-layer rows stream each weight row
// once. Every element is the same computation wherever it lands — a 4-lane
// FMA chain over the padded k, reduce_one's association, then + bias — so a
// sample's outputs never depend on which other rows share the call.
void v_matmul_a_bt_bias(const Matrix& a, const Matrix& b, const Matrix& bias, Matrix& out) {
  assert(a.cols == b.cols && bias.cols == b.rows);
  out.resize_uninit(a.rows, b.rows);
  const int m = a.rows, n = b.rows, ldk = a.ld;
  const double* bv = bias.row(0);
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a.row(i);
    const double* a1 = a.row(i + 1);
    const double* a2 = a.row(i + 2);
    const double* a3 = a.row(i + 3);
    int j = 0;
    for (; j + 2 <= n; j += 2) {
      const double* b0 = b.row(j);
      const double* b1 = b.row(j + 1);
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
      __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        const __m256d vb0 = _mm256_load_pd(b0 + k);
        const __m256d vb1 = _mm256_load_pd(b1 + k);
        __m256d va = _mm256_load_pd(a0 + k);
        c00 = _mm256_fmadd_pd(va, vb0, c00);
        c01 = _mm256_fmadd_pd(va, vb1, c01);
        va = _mm256_load_pd(a1 + k);
        c10 = _mm256_fmadd_pd(va, vb0, c10);
        c11 = _mm256_fmadd_pd(va, vb1, c11);
        va = _mm256_load_pd(a2 + k);
        c20 = _mm256_fmadd_pd(va, vb0, c20);
        c21 = _mm256_fmadd_pd(va, vb1, c21);
        va = _mm256_load_pd(a3 + k);
        c30 = _mm256_fmadd_pd(va, vb0, c30);
        c31 = _mm256_fmadd_pd(va, vb1, c31);
      }
      const __m128d vbias = _mm_loadu_pd(bv + j);
      _mm_storeu_pd(out.row(i) + j, _mm_add_pd(vbias, reduce_pair(c00, c01)));
      _mm_storeu_pd(out.row(i + 1) + j, _mm_add_pd(vbias, reduce_pair(c10, c11)));
      _mm_storeu_pd(out.row(i + 2) + j, _mm_add_pd(vbias, reduce_pair(c20, c21)));
      _mm_storeu_pd(out.row(i + 3) + j, _mm_add_pd(vbias, reduce_pair(c30, c31)));
    }
    if (j < n) {
      const double* bj = b.row(j);
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        const __m256d vb = _mm256_load_pd(bj + k);
        c0 = _mm256_fmadd_pd(_mm256_load_pd(a0 + k), vb, c0);
        c1 = _mm256_fmadd_pd(_mm256_load_pd(a1 + k), vb, c1);
        c2 = _mm256_fmadd_pd(_mm256_load_pd(a2 + k), vb, c2);
        c3 = _mm256_fmadd_pd(_mm256_load_pd(a3 + k), vb, c3);
      }
      out.row(i)[j] = bv[j] + reduce_one(c0);
      out.row(i + 1)[j] = bv[j] + reduce_one(c1);
      out.row(i + 2)[j] = bv[j] + reduce_one(c2);
      out.row(i + 3)[j] = bv[j] + reduce_one(c3);
    }
  }
  // Leftover rows: four b-rows at a time keeps four independent FMA chains
  // in flight (a one-sample slot runs entirely here).
  for (; i < m; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b.row(j);
      const double* b1 = b.row(j + 1);
      const double* b2 = b.row(j + 2);
      const double* b3 = b.row(j + 3);
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        const __m256d va = _mm256_load_pd(ai + k);
        c0 = _mm256_fmadd_pd(va, _mm256_load_pd(b0 + k), c0);
        c1 = _mm256_fmadd_pd(va, _mm256_load_pd(b1 + k), c1);
        c2 = _mm256_fmadd_pd(va, _mm256_load_pd(b2 + k), c2);
        c3 = _mm256_fmadd_pd(va, _mm256_load_pd(b3 + k), c3);
      }
      _mm_storeu_pd(oi + j, _mm_add_pd(_mm_loadu_pd(bv + j), reduce_pair(c0, c1)));
      _mm_storeu_pd(oi + j + 2, _mm_add_pd(_mm_loadu_pd(bv + j + 2), reduce_pair(c2, c3)));
    }
    for (; j < n; ++j) {
      const double* bj = b.row(j);
      __m256d c = _mm256_setzero_pd();
      for (int k = 0; k < ldk; k += 4) {
        c = _mm256_fmadd_pd(_mm256_load_pd(ai + k), _mm256_load_pd(bj + k), c);
      }
      oi[j] = bv[j] + reduce_one(c);
    }
  }
}

// --- CSR propagation (bit-identical class) ----------------------------------

void v_propagate(const GraphSample& s, const Matrix& h, Matrix& out) {
  out.resize_uninit(h.rows, h.cols);
  const int w = h.ld;
  for (int i = 0; i < h.rows; ++i) {
    double* oi = out.row(i);
    const double* hi = h.row(i);
    for (int c = 0; c < w; c += 4) _mm256_store_pd(oi + c, _mm256_load_pd(hi + c));
    for (int j : s.neighbors(i)) {
      const double* hj = h.row(j);
      for (int c = 0; c < w; c += 4) {
        _mm256_store_pd(oi + c, _mm256_add_pd(_mm256_load_pd(oi + c), _mm256_load_pd(hj + c)));
      }
    }
    const __m256d inv = _mm256_set1_pd(s.inv_deg[i]);
    for (int c = 0; c < w; c += 4) {
      _mm256_store_pd(oi + c, _mm256_mul_pd(_mm256_load_pd(oi + c), inv));
    }
  }
}

void v_propagate_transpose(const GraphSample& s, const Matrix& g, Matrix& out) {
  out.resize_uninit(g.rows, g.cols);
  const int w = g.ld;
  for (int j = 0; j < g.rows; ++j) {
    double* oj = out.row(j);
    const double* gj = g.row(j);
    const __m256d invj = _mm256_set1_pd(s.inv_deg[j]);
    for (int c = 0; c < w; c += 4) {
      _mm256_store_pd(oj + c, _mm256_mul_pd(invj, _mm256_load_pd(gj + c)));
    }
    for (int i : s.neighbors(j)) {
      const double* gi = g.row(i);
      // mul then add (no FMA) so each element matches the scalar kernel bit
      // for bit.
      const __m256d invi = _mm256_set1_pd(s.inv_deg[i]);
      for (int c = 0; c < w; c += 4) {
        const __m256d term = _mm256_mul_pd(invi, _mm256_load_pd(gi + c));
        _mm256_store_pd(oj + c, _mm256_add_pd(_mm256_load_pd(oj + c), term));
      }
    }
  }
}

// --- element-wise kernels ---------------------------------------------------

void v_tanh_inplace(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(x + i, tanh_pd(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) x[i] = std::tanh(x[i]);
}

void v_tanh_backward_inplace(double* d, const double* h, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vh = _mm256_loadu_pd(h + i);
    const __m256d factor = _mm256_sub_pd(one, _mm256_mul_pd(vh, vh));
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), factor));
  }
  for (; i < n; ++i) d[i] *= 1.0 - h[i] * h[i];
}

double v_dot_acc(double init, const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc);
  }
  double s = init + hsum_pd(acc);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void v_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void v_add(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void v_scale(double* x, double alpha, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

double v_sumsq_acc(double init, const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  double s = init + hsum_pd(acc);
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void v_relu_dropout_backward(double* d, const double* h, const double* mask, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d active = _mm256_cmp_pd(_mm256_loadu_pd(h + i), zero, _CMP_GT_OQ);
    const __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(d + i), _mm256_loadu_pd(mask + i));
    _mm256_storeu_pd(d + i, _mm256_and_pd(active, scaled));
  }
  for (; i < n; ++i) d[i] = h[i] > 0.0 ? d[i] * mask[i] : 0.0;
}

void v_adam_update(double* w, double* g, double* m, double* v, std::size_t n, double lr,
                   double bc1, double bc2, double gscale) {
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const __m256d vb1 = _mm256_set1_pd(b1);
  const __m256d vb2 = _mm256_set1_pd(b2);
  const __m256d vob1 = _mm256_set1_pd(1.0 - b1);
  const __m256d vob2 = _mm256_set1_pd(1.0 - b2);
  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vgs = _mm256_set1_pd(gscale);
  const __m256d zero = _mm256_setzero_pd();
  // One 4-lane step. Explicit mul/add (no FMA) and the exact scalar
  // association — (lr * (m/bc1)) / denom — keep this bit-identical to the
  // scalar update.
  const auto step4 = [&](std::size_t i) {
    const __m256d grad = _mm256_mul_pd(_mm256_loadu_pd(g + i), vgs);
    const __m256d vm =
        _mm256_add_pd(_mm256_mul_pd(vb1, _mm256_loadu_pd(m + i)), _mm256_mul_pd(vob1, grad));
    const __m256d gg = _mm256_mul_pd(grad, grad);
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(vb2, _mm256_loadu_pd(v + i)), _mm256_mul_pd(vob2, gg));
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vv, vbc2)), veps);
    const __m256d num = _mm256_mul_pd(vlr, _mm256_div_pd(vm, vbc1));
    const __m256d step = _mm256_div_pd(num, denom);
    _mm256_storeu_pd(w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i), step));
    _mm256_storeu_pd(m + i, vm);
    _mm256_storeu_pd(v + i, vv);
    _mm256_storeu_pd(g + i, zero);
  };
  std::size_t i = 0;
  // 2x unroll: the two chains are independent, so the second vsqrtpd/vdivpd
  // issues while the first is still in flight (both are latency-bound).
  for (; i + 8 <= n; i += 8) {
    step4(i);
    step4(i + 4);
  }
  for (; i + 4 <= n; i += 4) step4(i);
  for (; i < n; ++i) {
    const double grad = g[i] * gscale;
    m[i] = b1 * m[i] + (1.0 - b1) * grad;
    v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
    w[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    g[i] = 0.0;
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    /*vectorized=*/true,
    v_matmul,
    v_matmul_at_b_accum,
    v_matmul_a_bt,
    v_matmul_a_bt_bias,
    v_matmul_at_b_accum_sparse,
    v_csr_matmul,
    v_csr_matmul_at_b_accum,
    v_propagate,
    v_propagate_transpose,
    v_tanh_inplace,
    v_tanh_backward_inplace,
    v_dot_acc,
    v_axpy,
    v_add,
    v_scale,
    v_sumsq_acc,
    v_relu_dropout_backward,
    v_adam_update,
};

}  // namespace

// Looked up by simd.cpp (only when MUXLINK_BUILD_AVX2 is defined).
const KernelTable& avx2_kernel_table() { return kAvx2Table; }

}  // namespace muxlink::gnn
