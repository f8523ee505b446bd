#include "gnn/dgcnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "gnn/simd.h"

namespace muxlink::gnn {

// Dispatch wrappers kept for the public dgcnn.h API (tests and benches call
// these directly); the implementations live in the kernel tables (simd.h).
void propagate(const GraphSample& s, const Matrix& h, Matrix& out) {
  kernels().propagate(s, h, out);
}

void propagate_transpose(const GraphSample& s, const Matrix& g, Matrix& out) {
  kernels().propagate_transpose(s, g, out);
}

// Per-thread scratch: every tensor is resized (capacity-reusing) instead of
// reallocated, so steady-state forward/backward is allocation-free.
struct Dgcnn::Workspace {
  std::vector<Matrix> u;  // per conv layer: P * Z_{l-1}
  std::vector<Matrix> h;  // per conv layer: tanh output
  std::vector<int> order;  // selected global rows after SortPooling
  Matrix s;                // k × cat_dim
  Matrix c1;               // k × ch1 (post-ReLU)
  Matrix m;                // pooled_len × ch1
  std::vector<int> argmax;  // pooled_len * ch1 source frame indices
  Matrix c2;               // conv2_len × ch2 (post-ReLU)
  std::vector<double> f;   // flattened c2
  std::vector<double> hid;  // dense_units (post-ReLU, post-dropout)
  std::vector<double> mask;  // dropout mask (scaled)
  double prob1 = 0.0;        // softmax P(label=1)

  // Backward scratch.
  std::vector<double> dhid;
  std::vector<double> df;
  Matrix dm;                 // pooled_len × ch1
  Matrix dc1;                // k × ch1
  Matrix ds;                 // k × cat_dim
  std::vector<Matrix> dh;    // per conv layer: n × channels
  Matrix du;
  Matrix dz;
};

int choose_sortpool_k(std::vector<int> sizes, double fraction) {
  if (sizes.empty()) return 10;
  std::sort(sizes.begin(), sizes.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sizes.size()) - 1.0,
                       fraction * static_cast<double>(sizes.size())));
  return std::max(10, sizes[idx]);
}

std::vector<std::pair<int, int>> Dgcnn::parameter_shapes(int feature_dim,
                                                         const DgcnnConfig& cfg) {
  if (cfg.conv_channels.empty()) throw std::invalid_argument("Dgcnn: need conv layers");
  if (cfg.sortpool_k < 2) throw std::invalid_argument("Dgcnn: sortpool_k too small");
  const long long cat_dim =
      std::accumulate(cfg.conv_channels.begin(), cfg.conv_channels.end(), 0LL);
  const long long conv2_len = cfg.sortpool_k / 2 - static_cast<long long>(cfg.conv1d_kernel2) + 1;
  if (conv2_len < 1) {
    throw std::invalid_argument("Dgcnn: sortpool_k too small for the 1-D conv stack");
  }
  std::vector<std::pair<long long, long long>> wide;
  long long in_dim = feature_dim;
  for (int c : cfg.conv_channels) {
    wide.emplace_back(in_dim, c);
    in_dim = c;
  }
  const long long ch1 = cfg.conv1d_channels1, ch2 = cfg.conv1d_channels2, dense = cfg.dense_units;
  wide.insert(wide.end(), {{ch1, cat_dim}, {1, ch1}, {ch2, ch1 * cfg.conv1d_kernel2}, {1, ch2},
                           {dense, conv2_len * ch2}, {1, dense}, {2, dense}, {1, 2}});
  // Widths arrive from model files: a non-positive width or an element count
  // an int cannot index is rejected here, before anything is allocated.
  constexpr long long kMax = std::numeric_limits<int>::max();
  std::vector<std::pair<int, int>> shapes;
  for (const auto& [rows, cols] : wide) {
    if (rows < 1 || cols < 1 || rows > kMax || cols > kMax || rows * cols > kMax) {
      throw std::invalid_argument("Dgcnn: layer widths must be positive and fit an int");
    }
    shapes.emplace_back(static_cast<int>(rows), static_cast<int>(cols));
  }
  return shapes;
}

Dgcnn::Dgcnn(int feature_dim, const DgcnnConfig& config)
    : cfg_(config), feature_dim_(feature_dim), rng_(config.seed) {
  const auto shapes = parameter_shapes(feature_dim_, cfg_);
  cat_dim_ = std::accumulate(cfg_.conv_channels.begin(), cfg_.conv_channels.end(), 0);
  pooled_len_ = cfg_.sortpool_k / 2;
  conv2_len_ = pooled_len_ - cfg_.conv1d_kernel2 + 1;

  // Parameters are created in parameter_shapes() order; weights draw their
  // Glorot init from rng_ in that order, biases start at zero.
  auto add_param = [&](bool init) {
    const auto [rows, cols] = shapes[params_.size()];
    Matrix m(rows, cols);
    if (init) m.glorot(rng_);
    params_.push_back(std::move(m));
    grads_.emplace_back(rows, cols);
    adam_m_.emplace_back(rows, cols);
    adam_v_.emplace_back(rows, cols);
    return static_cast<int>(params_.size()) - 1;
  };

  for (std::size_t l = 0; l < cfg_.conv_channels.size(); ++l) w_conv_.push_back(add_param(true));
  k1_ = add_param(true);
  b1_ = add_param(false);
  k2_ = add_param(true);
  b2_ = add_param(false);
  w5_ = add_param(true);
  b5_ = add_param(false);
  w6_ = add_param(true);
  b6_ = add_param(false);
}

double Dgcnn::forward(const GraphSample& g, bool training, Workspace& ws,
                      std::mt19937_64* rng) const {
  if (g.x.cols != feature_dim_) throw std::invalid_argument("Dgcnn: feature dim mismatch");
  if (g.num_nodes() != g.x.rows) {
    throw std::invalid_argument("Dgcnn: adjacency / feature row mismatch");
  }
  const int n = g.x.rows;
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const KernelTable& kn = kernels();

  // Graph convolutions.
  ws.u.resize(L);
  ws.h.resize(L);
  const Matrix* z = &g.x;
  for (int l = 0; l < L; ++l) {
    kn.propagate(g, *z, ws.u[l]);
    kn.matmul(ws.u[l], params_[w_conv_[l]], ws.h[l]);
    // Whole padded buffer: tanh(0) == 0 keeps the pad lanes zero.
    kn.tanh_inplace(ws.h[l].data.data(), ws.h[l].data.size());
    z = &ws.h[l];
  }

  // SortPooling: order by the last (1-channel) layer, descending.
  const Matrix& last = ws.h[L - 1];
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double va = last.at(a, last.cols - 1);
    const double vb = last.at(b, last.cols - 1);
    return va != vb ? va > vb : a < b;
  });
  const int k = cfg_.sortpool_k;
  const int kept = std::min(k, n);
  order.resize(kept);
  ws.order = order;

  ws.s.resize(k, cat_dim_);
  for (int t = 0; t < kept; ++t) {
    int off = 0;
    for (int l = 0; l < L; ++l) {
      const double* hr = ws.h[l].row(order[t]);
      for (int c = 0; c < ws.h[l].cols; ++c) ws.s.at(t, off + c) = hr[c];
      off += ws.h[l].cols;
    }
  }

  // 1-D conv #1: per-frame dense over the cat_dim-wide rows. dot_acc chains
  // from the bias in ascending j — the scalar table reproduces the pre-SIMD
  // accumulation exactly.
  const Matrix& kk1 = params_[k1_];
  const Matrix& bb1 = params_[b1_];
  ws.c1.resize_uninit(k, cfg_.conv1d_channels1);  // every frame is written below
  for (int t = 0; t < k; ++t) {
    const double* sr = ws.s.row(t);
    for (int c = 0; c < cfg_.conv1d_channels1; ++c) {
      const double acc = kn.dot_acc(bb1.at(0, c), kk1.row(c), sr, cat_dim_);
      ws.c1.at(t, c) = acc > 0.0 ? acc : 0.0;
    }
  }

  // Max-pool (size 2, stride 2).
  ws.m.resize_uninit(pooled_len_, cfg_.conv1d_channels1);
  ws.argmax.assign(static_cast<std::size_t>(pooled_len_) * cfg_.conv1d_channels1, 0);
  for (int t = 0; t < pooled_len_; ++t) {
    for (int c = 0; c < cfg_.conv1d_channels1; ++c) {
      const double a = ws.c1.at(2 * t, c);
      const double b = ws.c1.at(2 * t + 1, c);
      const int src = a >= b ? 2 * t : 2 * t + 1;
      ws.m.at(t, c) = a >= b ? a : b;
      ws.argmax[static_cast<std::size_t>(t) * cfg_.conv1d_channels1 + c] = src;
    }
  }

  // 1-D conv #2 (kernel over frames). When channels1 is a multiple of the
  // SIMD lane count the pooled rows are contiguous (ld == cols), so the
  // whole kernel2 × channels1 window is ONE packed dot against the
  // row-major weight row; otherwise fall back to chaining one dot per frame.
  // Both paths accumulate in the identical wi/element order as the original
  // nested loop.
  const Matrix& kk2 = params_[k2_];
  const Matrix& bb2 = params_[b2_];
  const bool m_packed = ws.m.ld == ws.m.cols;
  const int window = cfg_.conv1d_kernel2 * cfg_.conv1d_channels1;
  ws.c2.resize_uninit(conv2_len_, cfg_.conv1d_channels2);
  for (int t = 0; t < conv2_len_; ++t) {
    for (int c = 0; c < cfg_.conv1d_channels2; ++c) {
      const double* w = kk2.row(c);
      double acc;
      if (m_packed) {
        acc = kn.dot_acc(bb2.at(0, c), w, ws.m.row(t), window);
      } else {
        acc = bb2.at(0, c);
        for (int dt = 0; dt < cfg_.conv1d_kernel2; ++dt) {
          acc = kn.dot_acc(acc, w + dt * cfg_.conv1d_channels1, ws.m.row(t + dt),
                           cfg_.conv1d_channels1);
        }
      }
      ws.c2.at(t, c) = acc > 0.0 ? acc : 0.0;
    }
  }

  // Flatten (logical elements only — c2 may carry pad lanes) + dense 128 +
  // ReLU + dropout.
  ws.f.resize(static_cast<std::size_t>(conv2_len_) * cfg_.conv1d_channels2);
  for (int t = 0; t < conv2_len_; ++t) {
    const double* cr = ws.c2.row(t);
    double* fr = ws.f.data() + static_cast<std::size_t>(t) * cfg_.conv1d_channels2;
    for (int c = 0; c < cfg_.conv1d_channels2; ++c) fr[c] = cr[c];
  }
  const Matrix& ww5 = params_[w5_];
  const Matrix& bb5 = params_[b5_];
  ws.hid.assign(cfg_.dense_units, 0.0);
  ws.mask.assign(cfg_.dense_units, 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int u = 0; u < cfg_.dense_units; ++u) {
    double acc = kn.dot_acc(bb5.at(0, u), ww5.row(u), ws.f.data(), ws.f.size());
    acc = acc > 0.0 ? acc : 0.0;
    if (training && cfg_.dropout > 0.0 && rng != nullptr) {
      if (unit(*rng) < cfg_.dropout) {
        ws.mask[u] = 0.0;
        acc = 0.0;
      } else {
        ws.mask[u] = 1.0 / (1.0 - cfg_.dropout);
        acc *= ws.mask[u];
      }
    }
    ws.hid[u] = acc;
  }

  // Dense 2 + softmax.
  const Matrix& ww6 = params_[w6_];
  const Matrix& bb6 = params_[b6_];
  double logits[2];
  for (int c = 0; c < 2; ++c) {
    logits[c] = kn.dot_acc(bb6.at(0, c), ww6.row(c), ws.hid.data(), ws.hid.size());
  }
  const double mx = std::max(logits[0], logits[1]);
  const double e0 = std::exp(logits[0] - mx);
  const double e1 = std::exp(logits[1] - mx);
  ws.prob1 = e1 / (e0 + e1);
  return ws.prob1;
}

namespace {
// One persistent workspace per thread: predict/accumulate from any number of
// threads reuse their own scratch instead of reallocating per sample.
Dgcnn::Workspace& thread_workspace() {
  static thread_local Dgcnn::Workspace ws;
  return ws;
}
}  // namespace

double Dgcnn::predict(const GraphSample& g, bool training) {
  return forward(g, training, thread_workspace(), training ? &rng_ : nullptr);
}

double Dgcnn::score(const GraphSample& g) const {
  return forward(g, /*training=*/false, thread_workspace(), nullptr);
}

double Dgcnn::accumulate_gradients(const GraphSample& g) {
  if (grads_.size() != params_.size()) {
    throw std::logic_error("Dgcnn::accumulate_gradients: training state was dropped");
  }
  Workspace& ws = thread_workspace();
  const double p1 = forward(g, /*training=*/true, ws, &rng_);
  backward(g, ws, grads_);
  const double p_true = g.label == 1 ? p1 : 1.0 - p1;
  return -std::log(std::max(p_true, 1e-12));
}

double Dgcnn::accumulate_gradients(const GraphSample& g, std::vector<Matrix>& grads,
                                   std::uint64_t dropout_seed) const {
  Workspace& ws = thread_workspace();
  std::mt19937_64 rng(dropout_seed);
  const double p1 = forward(g, /*training=*/true, ws, &rng);
  backward(g, ws, grads);
  const double p_true = g.label == 1 ? p1 : 1.0 - p1;
  return -std::log(std::max(p_true, 1e-12));
}

std::vector<Matrix> Dgcnn::make_gradient_buffers() const {
  std::vector<Matrix> out;
  out.reserve(params_.size());
  for (const Matrix& p : params_) out.emplace_back(p.rows, p.cols);
  return out;
}

void Dgcnn::add_gradients(const std::vector<Matrix>& grads) {
  if (grads.size() != grads_.size()) throw std::invalid_argument("add_gradients: mismatch");
  const KernelTable& kn = kernels();
  for (std::size_t p = 0; p < grads.size(); ++p) {
    auto& dst = grads_[p].data;
    const auto& src = grads[p].data;
    if (src.size() != dst.size()) throw std::invalid_argument("add_gradients: shape mismatch");
    kn.add(dst.data(), src.data(), src.size());
  }
}

void Dgcnn::backward(const GraphSample& g, Workspace& ws, std::vector<Matrix>& grads) const {
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const int k = cfg_.sortpool_k;
  const int kept = static_cast<int>(ws.order.size());
  const KernelTable& kn = kernels();

  // Softmax + cross-entropy gradient: d(loss)/d(logit_c) = p_c - onehot_c.
  double dlogits[2];
  dlogits[0] = (1.0 - ws.prob1) - (g.label == 0 ? 1.0 : 0.0);
  dlogits[1] = ws.prob1 - (g.label == 1 ? 1.0 : 0.0);

  // Dense 2.
  Matrix& gw6 = grads[w6_];
  Matrix& gb6 = grads[b6_];
  std::vector<double>& dhid = ws.dhid;
  dhid.assign(cfg_.dense_units, 0.0);
  for (int c = 0; c < 2; ++c) {
    gb6.at(0, c) += dlogits[c];
    // The weight-grad and input-grad updates touch disjoint arrays, so the
    // fused pre-SIMD loop splits into two axpys with unchanged results.
    kn.axpy(dlogits[c], ws.hid.data(), gw6.row(c), ws.hid.size());
    kn.axpy(dlogits[c], params_[w6_].row(c), dhid.data(), dhid.size());
  }

  // Dropout + ReLU of dense 1. ws.hid is post-dropout; a unit is active iff
  // hid > 0 (masked units are exactly 0, and ReLU zeros negatives).
  kn.relu_dropout_backward(dhid.data(), ws.hid.data(), ws.mask.data(), dhid.size());

  // Dense 1.
  Matrix& gw5 = grads[w5_];
  Matrix& gb5 = grads[b5_];
  std::vector<double>& df = ws.df;
  df.assign(ws.f.size(), 0.0);
  for (int u = 0; u < cfg_.dense_units; ++u) {
    if (dhid[u] == 0.0) continue;
    gb5.at(0, u) += dhid[u];
    kn.axpy(dhid[u], ws.f.data(), gw5.row(u), ws.f.size());
    kn.axpy(dhid[u], params_[w5_].row(u), df.data(), df.size());
  }

  // Conv2 (df is dC2 post-ReLU, flattened row-major). Same packed-window
  // trick as the forward pass: with contiguous pooled rows the weight-grad
  // and input-grad updates are each ONE axpy over the whole window.
  Matrix& dm = ws.dm;
  dm.resize(pooled_len_, cfg_.conv1d_channels1);
  Matrix& gk2 = grads[k2_];
  Matrix& gb2 = grads[b2_];
  const bool dm_packed = ws.m.ld == ws.m.cols && dm.ld == dm.cols;
  const int window2 = cfg_.conv1d_kernel2 * cfg_.conv1d_channels1;
  for (int t = 0; t < conv2_len_; ++t) {
    for (int c = 0; c < cfg_.conv1d_channels2; ++c) {
      const double out = ws.c2.at(t, c);
      double d = df[static_cast<std::size_t>(t) * cfg_.conv1d_channels2 + c];
      if (out <= 0.0 || d == 0.0) continue;
      gb2.at(0, c) += d;
      double* gw = gk2.row(c);
      const double* w = params_[k2_].row(c);
      if (dm_packed) {
        kn.axpy(d, ws.m.row(t), gw, window2);
        kn.axpy(d, w, dm.row(t), window2);
      } else {
        for (int dt = 0; dt < cfg_.conv1d_kernel2; ++dt) {
          const int wi = dt * cfg_.conv1d_channels1;
          kn.axpy(d, ws.m.row(t + dt), gw + wi, cfg_.conv1d_channels1);
          kn.axpy(d, w + wi, dm.row(t + dt), cfg_.conv1d_channels1);
        }
      }
    }
  }

  // Max-pool: route to argmax frame.
  Matrix& dc1 = ws.dc1;
  dc1.resize(k, cfg_.conv1d_channels1);
  for (int t = 0; t < pooled_len_; ++t) {
    for (int c = 0; c < cfg_.conv1d_channels1; ++c) {
      const double d = dm.at(t, c);
      if (d == 0.0) continue;
      dc1.at(ws.argmax[static_cast<std::size_t>(t) * cfg_.conv1d_channels1 + c], c) += d;
    }
  }

  // Conv1 (+ ReLU).
  Matrix& ds = ws.ds;
  ds.resize(k, cat_dim_);
  Matrix& gk1 = grads[k1_];
  Matrix& gb1 = grads[b1_];
  for (int t = 0; t < k; ++t) {
    for (int c = 0; c < cfg_.conv1d_channels1; ++c) {
      double d = dc1.at(t, c);
      if (d == 0.0 || ws.c1.at(t, c) <= 0.0) continue;
      gb1.at(0, c) += d;
      kn.axpy(d, ws.s.row(t), gk1.row(c), cat_dim_);
      kn.axpy(d, params_[k1_].row(c), ds.row(t), cat_dim_);
    }
  }

  // SortPooling scatter: segment ds rows back onto dH_l of selected nodes.
  const int n = g.x.rows;
  std::vector<Matrix>& dh = ws.dh;
  dh.resize(L);
  for (int l = 0; l < L; ++l) dh[l].resize(n, cfg_.conv_channels[l]);
  for (int t = 0; t < kept; ++t) {
    const int node = ws.order[t];
    int off = 0;
    for (int l = 0; l < L; ++l) {
      const double* dsr = ds.row(t);
      double* dhr = dh[l].row(node);
      for (int c = 0; c < cfg_.conv_channels[l]; ++c) dhr[c] += dsr[off + c];
      off += cfg_.conv_channels[l];
    }
  }

  // Graph convolutions, last to first: H_l = tanh(U_l W_l), U_l = P Z_{l-1}.
  for (int l = L - 1; l >= 0; --l) {
    Matrix& dhl = dh[l];
    // tanh' over the whole padded buffer (pads: 0 *= 1 stays 0).
    kn.tanh_backward_inplace(dhl.data.data(), ws.h[l].data.data(), dhl.data.size());
    kn.matmul_at_b_accum(ws.u[l], dhl, grads[w_conv_[l]]);
    if (l == 0) break;  // no gradient into the input features
    kn.matmul_a_bt(dhl, params_[w_conv_[l]], ws.du);
    kn.propagate_transpose(g, ws.du, ws.dz);
    // Same shape → same padded layout; pads add 0 + 0.
    kn.add(dh[l - 1].data.data(), ws.dz.data.data(), ws.dz.data.size());
  }
}

void Dgcnn::adam_step(std::size_t batch_size) {
  if (grads_.size() != params_.size() || adam_m_.size() != params_.size()) {
    throw std::logic_error("Dgcnn::adam_step: training state was dropped");
  }
  const double b1 = 0.9, b2 = 0.999;
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  const double scale = batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
  const KernelTable& kn = kernels();
  for (std::size_t p = 0; p < params_.size(); ++p) {
    if (params_[p].borrowed()) {
      // Mapped (zoo) weights are read-only views; training must go through
      // an owning copy (warm-start materializes before fine-tuning).
      throw std::logic_error("Dgcnn::adam_step: parameters are a read-only mapped view");
    }
    // Whole padded buffers: zero grad/m/v leave the zero pad weights zero.
    kn.adam_update(params_[p].data.data(), grads_[p].data.data(), adam_m_[p].data.data(),
                   adam_v_[p].data.data(), params_[p].data.size(), cfg_.learning_rate, bc1, bc2,
                   scale);
  }
}

void Dgcnn::drop_training_state() {
  std::vector<Matrix>().swap(grads_);
  std::vector<Matrix>().swap(adam_m_);
  std::vector<Matrix>().swap(adam_v_);
  adam_t_ = 0;
}

void Dgcnn::zero_gradients() {
  for (Matrix& g : grads_) g.zero();
}

void Dgcnn::set_optimizer_state(const OptimizerState& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    throw std::invalid_argument("set_optimizer_state: tensor count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (state.m[i].rows != params_[i].rows || state.m[i].cols != params_[i].cols ||
        state.v[i].rows != params_[i].rows || state.v[i].cols != params_[i].cols) {
      throw std::invalid_argument("set_optimizer_state: tensor " + std::to_string(i) +
                                  " shape mismatch");
    }
  }
  adam_m_ = state.m;
  adam_v_ = state.v;
  adam_t_ = state.t;
}

void Dgcnn::reset_optimizer() {
  for (Matrix& m : adam_m_) m.zero();
  for (Matrix& v : adam_v_) v.zero();
  adam_t_ = 0;
}

void Dgcnn::scale_gradients(double factor) {
  const KernelTable& kn = kernels();
  for (Matrix& g : grads_) kn.scale(g.data.data(), factor, g.data.size());
}

std::vector<Matrix> Dgcnn::save_parameters() const { return params_; }

void Dgcnn::load_parameters(const std::vector<Matrix>& params) {
  if (params.size() != params_.size()) throw std::invalid_argument("load_parameters: mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].rows != params_[i].rows || params[i].cols != params_[i].cols) {
      throw std::invalid_argument("load_parameters: tensor " + std::to_string(i) +
                                  " shape mismatch");
    }
  }
  params_ = params;
}

std::size_t Dgcnn::num_parameters() const {
  std::size_t n = 0;
  for (const Matrix& p : params_) {
    n += static_cast<std::size_t>(p.rows) * static_cast<std::size_t>(p.cols);
  }
  return n;
}

}  // namespace muxlink::gnn
