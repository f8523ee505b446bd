// Naive reference matmuls: the correctness oracle for the blocked scalar and
// AVX2 kernels (gnn/matrix.h, gnn/simd.h) and the baselines
// tools/bench_kernels times them against. Every output element is one
// accumulator summing its k-terms in ascending k. Do not optimize these.
#pragma once

#include <cassert>

#include "gnn/matrix.h"

namespace muxlink::gnn {

// out = a * b.
inline void matmul_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.rows);
  out.resize(a.rows, b.cols);
  for (int i = 0; i < a.rows; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    for (int k = 0; k < a.cols; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.row(k);
      for (int j = 0; j < b.cols; ++j) oi[j] += aik * bk[j];
    }
  }
}

// out += a^T * b (used for weight gradients).
inline void matmul_at_b_accum_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  for (int k = 0; k < a.rows; ++k) {
    const double* ak = a.row(k);
    const double* bk = b.row(k);
    for (int i = 0; i < a.cols; ++i) {
      const double aki = ak[i];
      if (aki == 0.0) continue;
      double* oi = out.row(i);
      for (int j = 0; j < b.cols; ++j) oi[j] += aki * bk[j];
    }
  }
}

// out = a * b^T.
inline void matmul_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols == b.cols);
  out.resize(a.rows, b.rows);
  for (int i = 0; i < a.rows; ++i) {
    const double* ai = a.row(i);
    double* oi = out.row(i);
    for (int j = 0; j < b.rows; ++j) {
      const double* bj = b.row(j);
      double acc = 0.0;
      for (int k = 0; k < a.cols; ++k) acc += ai[k] * bj[k];
      oi[j] = acc;
    }
  }
}

}  // namespace muxlink::gnn
