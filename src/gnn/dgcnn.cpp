#include "gnn/dgcnn.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gnn/simd.h"

namespace muxlink::gnn {

namespace {

// Per-layer wall time, accumulated per slot in the slot scratch and recorded
// once per slot into the calling thread's `gnn.layer.<layer>.{fwd,bwd}_s`
// histogram shards, which snapshots merge like every other metric into the
// observability block (never into a deterministic manifest). While metrics
// are disabled no clock is read.
enum Layer { kGconv, kSortpool, kConv1, kConv2, kDense1, kDense2, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"gconv", "sortpool", "conv1",
                                                 "conv2", "dense1",   "dense2"};

struct LayerTimers {
  using Clock = std::chrono::steady_clock;
  bool on = false;
  Clock::time_point mark;
  double seconds[kNumLayers] = {};
  // [0] forward, [1] backward: this thread's shards, created on first use.
  common::HistogramCell* cells[2][kNumLayers] = {};

  void start() {
#ifndef MUXLINK_METRICS_DISABLED
    on = common::metrics_enabled();
#endif
    if (on) mark = Clock::now();
  }
  // Charges the time since the previous mark to `layer`.
  void lap(Layer layer) {
    if (!on) return;
    const Clock::time_point now = Clock::now();
    seconds[layer] += std::chrono::duration<double>(now - mark).count();
    mark = now;
  }
  void flush(int pass) {
    if (!on) return;
    for (int l = 0; l < kNumLayers; ++l) {
      if (cells[pass][l] == nullptr) {
        const std::string name =
            std::string("gnn.layer.") + kLayerNames[l] + (pass == 0 ? ".fwd_s" : ".bwd_s");
        cells[pass][l] = &common::MetricsRegistry::instance().histogram(name).cell();
      }
      cells[pass][l]->record(seconds[l]);
      seconds[l] = 0.0;
    }
  }
};

}  // namespace

// Per-thread slot scratch. A slot's samples are stacked row-wise in the
// slot-wide tensors (sample i owns rows [i*k, (i+1)*k) of s, c1 and dc1, row
// i of f and hid, and so on), so each 1-D conv and dense layer is one
// matmul. Only forward activations exist per sample; backward runs the
// samples one after another through one set of buffers. Every tensor is
// resized (capacity-reusing), never reallocated, so the steady state is
// allocation-free.
struct Dgcnn::Workspace {
  struct Sample {
    CsrRows u0;              // conv layer 0: P * X as CSR rows
    std::vector<Matrix> u;   // per conv layer l >= 1: P * Z_{l-1} (u[0] unused)
    std::vector<Matrix> h;   // per conv layer: tanh output
    std::vector<int> order;  // SortPooling: selected rows, best first
  };
  Sample sample[kSlotSamples];

  Matrix s;                 // (slot·k) × cat_dim, SortPooling output
  Matrix c1;                // (slot·k) × ch1, post-ReLU
  Matrix m;                 // (slot·pooled_len) × ch1, max-pooled
  std::vector<int> argmax;  // per m element: source frame within its sample
  Matrix x2;                // (slot·conv2_len) × (kernel2·ch1) conv-2 windows
  Matrix c2;                // (slot·conv2_len) × ch2, post-ReLU
  Matrix f;                 // slot × (conv2_len·ch2), flattened c2
  Matrix hid;               // slot × dense_units, post-ReLU, post-dropout
  Matrix mask;              // slot × dense_units dropout scale
  Matrix logits;            // slot × 2
  double prob1[kSlotSamples] = {};  // softmax P(label=1)
  std::mt19937_64 dropout_rng[kSlotSamples];  // reseeded per training slot

  // Backward scratch.
  Matrix dlogits;          // slot × 2
  Matrix dhid;             // slot × dense_units
  Matrix df;               // slot × (conv2_len·ch2)
  Matrix dc2;              // (slot·conv2_len) × ch2, ReLU-gated
  Matrix dm;               // (slot·pooled_len) × ch1
  Matrix dc1;              // (slot·k) × ch1, ReLU-gated
  Matrix dki;              // one sample's kept dc1 rows
  Matrix ds;               // one sample's kept frames × cat_dim
  Matrix dt;               // transposed gradient operand of a sparse product
  Matrix merge_a;          // merge_gradients: a slot's dhid columns for a row block
  Matrix merge_out;        // merge_gradients: that block's expanded gW5 rows
  std::vector<Matrix> dh;  // per conv layer: n × channels
  Matrix du;
  Matrix dz;

  LayerTimers timers;
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
    : cfg_(config), feature_dim_(feature_dim) {
  const auto shapes = parameter_shapes(feature_dim_, cfg_);
  cat_dim_ = std::accumulate(cfg_.conv_channels.begin(), cfg_.conv_channels.end(), 0);
  pooled_len_ = cfg_.sortpool_k / 2;
  conv2_len_ = pooled_len_ - cfg_.conv1d_kernel2 + 1;

  // Parameters are created in parameter_shapes() order; weights draw their
  // Glorot init, in that order, from one generator seeded with config.seed;
  // biases start at zero.
  std::mt19937_64 rng(config.seed);
  auto add_param = [&](bool init) {
    const auto [rows, cols] = shapes[params_.size()];
    Matrix m(rows, cols);
    if (init) m.glorot(rng);
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

namespace {

// dst = srcᵀ.
void transpose(const Matrix& src, Matrix& dst) {
  dst.resize_uninit(src.cols, src.rows);
  for (int r = 0; r < src.rows; ++r) {
    const double* sr = src.row(r);
    for (int c = 0; c < src.cols; ++c) dst.at(c, r) = sr[c];
  }
}

// ReLU over a whole padded buffer (pads stay 0).
void relu_inplace(Matrix& x) {
  for (double& v : x.data) v = v > 0.0 ? v : 0.0;
}

}  // namespace

void propagate_features(const GraphSample& s, CsrRows& out) {
  const int n = s.num_nodes();
  out.offsets.assign(1, 0);
  out.cols.clear();
  out.vals.clear();
  for (int i = 0; i < n; ++i) {
    // Gather the columns of i and its neighbors, sort, and emit each run as
    // (column, run length · inv_deg[i]).
    const std::size_t begin = out.cols.size();
    const auto own = s.features(i);
    out.cols.insert(out.cols.end(), own.begin(), own.end());
    for (int j : s.neighbors(i)) {
      const auto fj = s.features(j);
      out.cols.insert(out.cols.end(), fj.begin(), fj.end());
    }
    std::sort(out.cols.begin() + static_cast<std::ptrdiff_t>(begin), out.cols.end());
    const std::size_t end = out.cols.size();
    const double inv = s.inv_deg[i];
    std::size_t w = begin;
    for (std::size_t r = begin; r < end;) {
      const int c = out.cols[r];
      std::size_t run = r + 1;
      while (run < end && out.cols[run] == c) ++run;
      out.cols[w++] = c;
      out.vals.push_back(static_cast<double>(run - r) * inv);
      r = run;
    }
    out.cols.resize(w);
    out.offsets.push_back(static_cast<int>(w));
  }
}

namespace {

// Rejects feature lists a layer-0 kernel would misread: a column outside
// [0, feature_dim) would index past W0, and a repeated column would count
// twice where a dense X holds a single 1.0.
void check_features(const GraphSample& g, int feature_dim) {
  const int n = g.num_nodes();
  if (g.nbr_offsets.empty() || g.feat_offsets.size() != g.nbr_offsets.size() ||
      g.feat_offsets.front() != 0 ||
      g.feat_offsets.back() != static_cast<int>(g.feat.size()) ||
      g.inv_deg.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("Dgcnn: adjacency / feature row mismatch");
  }
  for (int i = 0; i < n; ++i) {
    if (g.feat_offsets[i] > g.feat_offsets[i + 1] ||
        g.feat_offsets[i + 1] > static_cast<int>(g.feat.size())) {
      throw std::invalid_argument("Dgcnn: feature offsets must rise to the list's size");
    }
    int prev = -1;
    for (int c : g.features(i)) {
      if (c < 0 || c >= feature_dim) {
        throw std::invalid_argument("Dgcnn: feature column " + std::to_string(c) +
                                    " outside [0, " + std::to_string(feature_dim) + ")");
      }
      if (c <= prev) {
        throw std::invalid_argument("Dgcnn: feature columns of node " + std::to_string(i) +
                                    " must be strictly ascending");
      }
      prev = c;
    }
  }
}

}  // namespace

void Dgcnn::forward(std::span<const GraphSample* const> slot, Workspace& ws,
                    std::mt19937_64* const* rngs) const {
  if (slot.empty() || slot.size() > kSlotSamples) {
    throw std::invalid_argument("Dgcnn: a slot holds 1.." + std::to_string(kSlotSamples) +
                                " samples");
  }
  for (const GraphSample* g : slot) check_features(*g, feature_dim_);
  const int ns = static_cast<int>(slot.size());
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const int k = cfg_.sortpool_k;
  const int ch1 = cfg_.conv1d_channels1;
  const int ch2 = cfg_.conv1d_channels2;
  const int kw = cfg_.conv1d_kernel2;
  const KernelTable& kn = kernels();
  LayerTimers& timers = ws.timers;
  timers.start();

  // Graph convolutions, then SortPooling into sample i's k rows of s.
  ws.s.resize_uninit(ns * k, cat_dim_);
  for (int i = 0; i < ns; ++i) {
    const GraphSample& g = *slot[i];
    Workspace::Sample& sm = ws.sample[i];
    const int n = g.num_nodes();
    sm.u.resize(L);
    sm.h.resize(L);
    for (int l = 0; l < L; ++l) {
      if (l == 0) {
        // From the binary features' CSR rows: bit for bit the dense
        // propagate + matmul over the densified X.
        propagate_features(g, sm.u0);
        sm.h[0].resize_uninit(n, cfg_.conv_channels[0]);
        kn.csr_matmul(sm.u0, 0, n, params_[w_conv_[0]], sm.h[0]);
      } else {
        kn.propagate(g, sm.h[l - 1], sm.u[l]);
        kn.matmul(sm.u[l], params_[w_conv_[l]], sm.h[l]);
      }
      // Whole padded buffer: tanh(0) == 0 keeps the pad lanes zero.
      kn.tanh_inplace(sm.h[l].data.data(), sm.h[l].data.size());
    }
    timers.lap(kGconv);

    // Order by the last (1-channel) layer, descending, sorting the
    // workspace's own buffer; graphs smaller than k pad with zero frames.
    const Matrix& last = sm.h[L - 1];
    sm.order.resize(n);
    std::iota(sm.order.begin(), sm.order.end(), 0);
    std::sort(sm.order.begin(), sm.order.end(), [&](int a, int b) {
      const double va = last.at(a, last.cols - 1);
      const double vb = last.at(b, last.cols - 1);
      return va != vb ? va > vb : a < b;
    });
    const int kept = std::min(k, n);
    sm.order.resize(kept);
    for (int t = 0; t < k; ++t) {
      double* sr = ws.s.row(i * k + t);
      if (t >= kept) {
        std::fill(sr, sr + cat_dim_, 0.0);
        continue;
      }
      for (int l = 0; l < L; ++l) {
        const double* hr = sm.h[l].row(sm.order[t]);
        sr = std::copy(hr, hr + sm.h[l].cols, sr);
      }
    }
    timers.lap(kSortpool);
  }

  // 1-D conv #1: a per-frame dense over the cat_dim-wide rows, every frame
  // of the slot in one matmul; then ReLU and max-pool (size 2, stride 2).
  kn.matmul_a_bt_bias(ws.s, params_[k1_], params_[b1_], ws.c1);
  relu_inplace(ws.c1);
  ws.m.resize_uninit(ns * pooled_len_, ch1);
  ws.argmax.resize(static_cast<std::size_t>(ns) * pooled_len_ * ch1);
  for (int i = 0; i < ns; ++i) {
    for (int t = 0; t < pooled_len_; ++t) {
      const double* even = ws.c1.row(i * k + 2 * t);
      const double* odd = ws.c1.row(i * k + 2 * t + 1);
      double* mr = ws.m.row(i * pooled_len_ + t);
      int* src = ws.argmax.data() + (static_cast<std::size_t>(i) * pooled_len_ + t) * ch1;
      for (int c = 0; c < ch1; ++c) {
        const bool first = even[c] >= odd[c];
        mr[c] = first ? even[c] : odd[c];
        src[c] = first ? 2 * t : 2 * t + 1;
      }
    }
  }
  timers.lap(kConv1);

  // 1-D conv #2 (kernel over frames) as one matmul over im2col windows:
  // window (i, t) holds pooled frames t .. t+kernel2-1 of sample i back to
  // back, the element order the kernel's weight rows use.
  ws.x2.resize_uninit(ns * conv2_len_, kw * ch1);
  for (int i = 0; i < ns; ++i) {
    for (int t = 0; t < conv2_len_; ++t) {
      double* xr = ws.x2.row(i * conv2_len_ + t);
      for (int dt = 0; dt < kw; ++dt) {
        const double* mr = ws.m.row(i * pooled_len_ + t + dt);
        xr = std::copy(mr, mr + ch1, xr);
      }
    }
  }
  kn.matmul_a_bt_bias(ws.x2, params_[k2_], params_[b2_], ws.c2);
  relu_inplace(ws.c2);
  // Flatten (logical elements only — c2 rows may carry pad lanes).
  ws.f.resize_uninit(ns, conv2_len_ * ch2);
  for (int i = 0; i < ns; ++i) {
    double* fr = ws.f.row(i);
    for (int t = 0; t < conv2_len_; ++t) {
      const double* cr = ws.c2.row(i * conv2_len_ + t);
      fr = std::copy(cr, cr + ch2, fr);
    }
  }
  timers.lap(kConv2);

  // Dense 1 + ReLU + dropout. Each sample draws its units' dropout in unit
  // order from its own generator.
  kn.matmul_a_bt_bias(ws.f, params_[w5_], params_[b5_], ws.hid);
  const int units = cfg_.dense_units;
  const bool dropout = rngs != nullptr && cfg_.dropout > 0.0;
  const double keep_scale = 1.0 / (1.0 - cfg_.dropout);
  ws.mask.resize_uninit(ns, units);
  for (int i = 0; i < ns; ++i) {
    double* hr = ws.hid.row(i);
    double* mr = ws.mask.row(i);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int u = 0; u < units; ++u) {
      const double acc = hr[u] > 0.0 ? hr[u] : 0.0;
      if (dropout) {
        const bool dropped = unit(*rngs[i]) < cfg_.dropout;
        mr[u] = dropped ? 0.0 : keep_scale;
        hr[u] = dropped ? 0.0 : acc * keep_scale;
      } else {
        mr[u] = 1.0;
        hr[u] = acc;
      }
    }
  }
  timers.lap(kDense1);

  // Dense 2 + softmax.
  kn.matmul_a_bt_bias(ws.hid, params_[w6_], params_[b6_], ws.logits);
  for (int i = 0; i < ns; ++i) {
    const double l0 = ws.logits.at(i, 0);
    const double l1 = ws.logits.at(i, 1);
    const double mx = std::max(l0, l1);
    const double e0 = std::exp(l0 - mx);
    const double e1 = std::exp(l1 - mx);
    ws.prob1[i] = e1 / (e0 + e1);
  }
  timers.lap(kDense2);
  timers.flush(0);
}

double Dgcnn::slot_loss(std::span<const GraphSample* const> slot, const Workspace& ws) const {
  double loss = 0.0;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    const double p_true = slot[i]->label == 1 ? ws.prob1[i] : 1.0 - ws.prob1[i];
    loss += -std::log(std::max(p_true, 1e-12));
  }
  return loss;
}

namespace {
// One persistent workspace per thread: predict/accumulate from any number of
// threads reuse their own scratch instead of reallocating per slot.
Dgcnn::Workspace& thread_workspace() {
  static thread_local Dgcnn::Workspace ws;
  return ws;
}
}  // namespace

void Dgcnn::score(std::span<const GraphSample* const> samples, double* out) const {
  Workspace& ws = thread_workspace();
  forward(samples, ws, nullptr);
  std::copy_n(ws.prob1, samples.size(), out);
}

double Dgcnn::predict(const GraphSample& g) const {
  const GraphSample* slot[] = {&g};
  double p = 0.0;
  score(slot, &p);
  return p;
}

Dgcnn::SlotGradients Dgcnn::make_slot_gradients() const {
  SlotGradients slot;
  slot.grads.reserve(params_.size());
  for (const Matrix& p : params_) slot.grads.emplace_back(p.rows, p.cols);
  slot.grads[w5_] = Matrix();
  return slot;
}

double Dgcnn::accumulate_gradients(std::span<const GraphSample* const> samples,
                                   SlotGradients& slot,
                                   std::span<const std::uint64_t> dropout_seeds) const {
  if (samples.empty() || samples.size() > kSlotSamples ||
      dropout_seeds.size() != samples.size()) {
    throw std::invalid_argument(
        "Dgcnn::accumulate_gradients: a slot holds 1.." + std::to_string(kSlotSamples) +
        " samples, one dropout seed each");
  }
  if (slot.grads.size() != params_.size()) {
    throw std::invalid_argument("Dgcnn::accumulate_gradients: slot buffer mismatch");
  }
  Workspace& ws = thread_workspace();
  std::mt19937_64* rngs[kSlotSamples];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ws.dropout_rng[i].seed(dropout_seeds[i]);
    rngs[i] = &ws.dropout_rng[i];
  }
  forward(samples, ws, rngs);
  backward(samples, ws, slot.grads);
  // Dense-1's weight gradient stays factored: append this slot's rows.
  const int held = slot.dhid.rows;
  const int ns = static_cast<int>(samples.size());
  slot.dhid.resize_uninit(held + ns, ws.dhid.cols);
  slot.f.resize_uninit(held + ns, ws.f.cols);
  for (int i = 0; i < ns; ++i) {
    std::copy_n(ws.dhid.row(i), ws.dhid.ld, slot.dhid.row(held + i));
    std::copy_n(ws.f.row(i), ws.f.ld, slot.f.row(held + i));
  }
  return slot_loss(samples, ws);
}

namespace {

// Target elements per pool task of the row-wise optimizer passes.
constexpr std::size_t kUpdateBlock = 4096;

// Calls fn(tensor, row_begin, row_end) over every tensor in blocks of whole
// rows (about kUpdateBlock elements each), on the pool. Each row belongs to
// exactly one call, so a row-wise pass gives the same bits at any thread
// count.
template <typename Fn>
void for_each_block(const std::vector<Matrix>& tensors, Fn&& fn) {
  struct Block {
    std::size_t tensor;
    int row_begin, row_end;
  };
  std::vector<Block> blocks;
  for (std::size_t p = 0; p < tensors.size(); ++p) {
    const int step = std::max(1, static_cast<int>(kUpdateBlock) / std::max(1, tensors[p].ld));
    for (int r = 0; r < tensors[p].rows; r += step) {
      blocks.push_back({p, r, std::min(tensors[p].rows, r + step)});
    }
  }
  common::parallel_for(blocks.size(), 1, [&](std::size_t first, std::size_t last, std::size_t) {
    for (std::size_t i = first; i < last; ++i) {
      fn(blocks[i].tensor, blocks[i].row_begin, blocks[i].row_end);
    }
  });
}

}  // namespace

void Dgcnn::merge_gradients(std::span<SlotGradients> slots) {
  if (grads_.size() != params_.size()) {
    throw std::logic_error("Dgcnn::merge_gradients: training state was dropped");
  }
  for (const SlotGradients& slot : slots) {
    bool ok = slot.grads.size() == grads_.size() && slot.dhid.rows == slot.f.rows &&
              (slot.dhid.rows == 0 ||
               (slot.dhid.cols == grads_[w5_].rows && slot.f.cols == grads_[w5_].cols));
    for (std::size_t p = 0; ok && p < grads_.size(); ++p) {
      ok = p == static_cast<std::size_t>(w5_) || slot.grads[p].data.size() == grads_[p].data.size();
    }
    if (!ok) throw std::invalid_argument("merge_gradients: slot buffer mismatch");
  }
  const KernelTable& kn = kernels();
  for_each_block(grads_, [&](std::size_t p, int row_begin, int row_end) {
    Matrix& dst = grads_[p];
    const std::size_t begin = static_cast<std::size_t>(row_begin) * dst.ld;
    const std::size_t len = static_cast<std::size_t>(row_end - row_begin) * dst.ld;
    if (p != static_cast<std::size_t>(w5_)) {
      for (SlotGradients& slot : slots) {
        double* src = slot.grads[p].data.data() + begin;
        kn.add(dst.data.data() + begin, src, len);
        std::fill(src, src + len, 0.0);
      }
      return;
    }
    // Dense-1's weight rows: expand each slot's factors into a zeroed block
    // — the rows a slot-sized buffer would hold — and add it, slot by slot.
    Workspace& ws = thread_workspace();
    for (const SlotGradients& slot : slots) {
      if (slot.dhid.rows == 0) continue;
      ws.merge_a.resize_uninit(slot.dhid.rows, row_end - row_begin);
      for (int k = 0; k < slot.dhid.rows; ++k) {
        std::copy(slot.dhid.row(k) + row_begin, slot.dhid.row(k) + row_end, ws.merge_a.row(k));
      }
      ws.merge_out.resize(row_end - row_begin, dst.cols);
      kn.matmul_at_b_accum_sparse(ws.merge_a, slot.f, ws.merge_out);
      kn.add(dst.data.data() + begin, ws.merge_out.data.data(), len);
    }
  });
  for (SlotGradients& slot : slots) {
    slot.dhid.resize_uninit(0, slot.dhid.cols);
    slot.f.resize_uninit(0, slot.f.cols);
  }
}

// Gradients of every tensor accumulate in sample order, so for each element
// the scalar kernels add exactly the terms, in exactly the order, of running
// the slot's samples through a per-sample backward one after another.
void Dgcnn::backward(std::span<const GraphSample* const> slot, Workspace& ws,
                     std::vector<Matrix>& grads) const {
  const int ns = static_cast<int>(slot.size());
  const int L = static_cast<int>(cfg_.conv_channels.size());
  const int k = cfg_.sortpool_k;
  const int ch1 = cfg_.conv1d_channels1;
  const int ch2 = cfg_.conv1d_channels2;
  const int kw = cfg_.conv1d_kernel2;
  const int units = cfg_.dense_units;
  const KernelTable& kn = kernels();
  LayerTimers& timers = ws.timers;
  timers.start();
  MUXLINK_COUNTER_ADD("gnn.train.slots", 1);

  // Softmax + cross-entropy gradient: d(loss)/d(logit_c) = p_c - onehot_c.
  ws.dlogits.resize_uninit(ns, 2);
  Matrix& gb6 = grads[b6_];
  for (int i = 0; i < ns; ++i) {
    const int label = slot[i]->label;
    ws.dlogits.at(i, 0) = (1.0 - ws.prob1[i]) - (label == 0 ? 1.0 : 0.0);
    ws.dlogits.at(i, 1) = ws.prob1[i] - (label == 1 ? 1.0 : 0.0);
    for (int c = 0; c < 2; ++c) gb6.at(0, c) += ws.dlogits.at(i, c);
  }

  // Dense 2.
  kn.matmul_at_b_accum(ws.dlogits, ws.hid, grads[w6_]);
  kn.matmul(ws.dlogits, params_[w6_], ws.dhid);
  timers.lap(kDense2);

  // Dropout + ReLU of dense 1. hid is post-dropout; a unit is active iff
  // hid > 0 (masked units are exactly 0, and ReLU zeros negatives).
  kn.relu_dropout_backward(ws.dhid.data.data(), ws.hid.data.data(), ws.mask.data.data(),
                           ws.dhid.data.size());

  // Dense 1. Most dhid entries are zero (ReLU, dropout 0.5), so both
  // products with the dense-1 weights stay row-sparse: df = dhid·W5 (as
  // (dhidᵀ)ᵀ·W5 into a zeroed df) streams only the active W5 rows, and
  // gW5 += dhidᵀ·f — which the caller applies, from dhid and f — touches
  // only rows with a nonzero term. Dense products measured slower.
  double* gb5 = grads[b5_].row(0);
  for (int i = 0; i < ns; ++i) {
    const double* dr = ws.dhid.row(i);
    for (int u = 0; u < units; ++u) gb5[u] += dr[u];
  }
  transpose(ws.dhid, ws.dt);
  ws.df.resize(ns, conv2_len_ * ch2);
  kn.matmul_at_b_accum_sparse(ws.dt, params_[w5_], ws.df);
  timers.lap(kDense1);

  // Conv 2: df unflattened and ReLU-gated into dc2, then gK2 += dc2ᵀ·x2.
  ws.dc2.resize_uninit(ns * conv2_len_, ch2);
  double* gb2 = grads[b2_].row(0);
  for (int i = 0; i < ns; ++i) {
    const double* dfr = ws.df.row(i);
    for (int t = 0; t < conv2_len_; ++t) {
      const int r = i * conv2_len_ + t;
      const double* cr = ws.c2.row(r);
      double* dr = ws.dc2.row(r);
      for (int c = 0; c < ch2; ++c) {
        dr[c] = cr[c] > 0.0 ? dfr[t * ch2 + c] : 0.0;
        gb2[c] += dr[c];
      }
    }
  }
  kn.matmul_at_b_accum(ws.dc2, ws.x2, grads[k2_]);
  // The input gradient adds straight into the overlapping dm windows, frame
  // by frame in ascending t: summing each window's products first (col2im)
  // would re-associate the sums. With contiguous pooled rows a window is
  // one axpy; otherwise one per frame.
  ws.dm.resize(ns * pooled_len_, ch1);
  const Matrix& kk2 = params_[k2_];
  const bool dm_packed = ws.dm.ld == ws.dm.cols;
  for (int i = 0; i < ns; ++i) {
    for (int t = 0; t < conv2_len_; ++t) {
      const double* dr = ws.dc2.row(i * conv2_len_ + t);
      const int frame = i * pooled_len_ + t;
      for (int c = 0; c < ch2; ++c) {
        if (dr[c] == 0.0) continue;
        const double* w = kk2.row(c);
        if (dm_packed) {
          kn.axpy(dr[c], w, ws.dm.row(frame), static_cast<std::size_t>(kw) * ch1);
        } else {
          for (int dt = 0; dt < kw; ++dt) kn.axpy(dr[c], w + dt * ch1, ws.dm.row(frame + dt), ch1);
        }
      }
    }
  }
  timers.lap(kConv2);

  // Max-pool routes to the argmax frame; the ReLU of conv 1 gates dc1.
  // These loops, like the bias-gradient sums above, add zeros instead of
  // branching around them: every accumulator starts at +0.0 and only ever
  // holds +0.0 or a nonzero value, so adding +0.0 leaves its bits alone.
  ws.dc1.resize(ns * k, ch1);
  for (int i = 0; i < ns; ++i) {
    for (int t = 0; t < pooled_len_; ++t) {
      const double* dmr = ws.dm.row(i * pooled_len_ + t);
      const int* src = ws.argmax.data() + (static_cast<std::size_t>(i) * pooled_len_ + t) * ch1;
      for (int c = 0; c < ch1; ++c) ws.dc1.row(i * k + src[c])[c] += dmr[c];
    }
  }
  double* gb1 = grads[b1_].row(0);
  for (int r = 0; r < ns * k; ++r) {
    const double* cr = ws.c1.row(r);
    double* dr = ws.dc1.row(r);
    for (int c = 0; c < ch1; ++c) {
      dr[c] = cr[c] > 0.0 ? dr[c] : 0.0;
      gb1[c] += dr[c];
    }
  }
  // Conv 1: gK1 += dc1ᵀ·s, one matmul over the slot.
  kn.matmul_at_b_accum(ws.dc1, ws.s, grads[k1_]);
  timers.lap(kConv1);

  // Per sample: ds = dc1_i·K1 over its kept frames (zero frames' rows would
  // scatter nowhere), SortPooling scatters ds rows back onto dH_l of the
  // selected nodes, then the graph convolutions run last to first:
  // H_l = tanh(U_l W_l), U_l = P Z_{l-1}.
  std::vector<Matrix>& dh = ws.dh;
  dh.resize(L);
  for (int i = 0; i < ns; ++i) {
    const GraphSample& g = *slot[i];
    const Workspace::Sample& sm = ws.sample[i];
    const int n = g.num_nodes();
    const int kept = static_cast<int>(sm.order.size());
    ws.dki.resize_uninit(kept, ch1);
    for (int t = 0; t < kept; ++t) {
      const double* dr = ws.dc1.row(i * k + t);
      std::copy(dr, dr + ch1, ws.dki.row(t));
    }
    kn.matmul(ws.dki, params_[k1_], ws.ds);
    timers.lap(kConv1);

    for (int l = 0; l < L; ++l) dh[l].resize(n, cfg_.conv_channels[l]);
    for (int t = 0; t < kept; ++t) {
      const double* dsr = ws.ds.row(t);
      const int node = sm.order[t];
      int off = 0;
      for (int l = 0; l < L; ++l) {
        double* dhr = dh[l].row(node);
        for (int c = 0; c < cfg_.conv_channels[l]; ++c) dhr[c] += dsr[off + c];
        off += cfg_.conv_channels[l];
      }
    }
    timers.lap(kSortpool);

    for (int l = L - 1; l >= 0; --l) {
      Matrix& dhl = dh[l];
      // tanh' over the whole padded buffer (pads: 0 *= 1 stays 0).
      kn.tanh_backward_inplace(dhl.data.data(), sm.h[l].data.data(), dhl.data.size());
      if (l == 0) {
        // No gradient into the input features.
        kn.csr_matmul_at_b_accum(sm.u0, 0, n, dhl, grads[w_conv_[0]]);
        break;
      }
      kn.matmul_at_b_accum(sm.u[l], dhl, grads[w_conv_[l]]);
      kn.matmul_a_bt(dhl, params_[w_conv_[l]], ws.du);
      kn.propagate_transpose(g, ws.du, ws.dz);
      // Same shape → same padded layout; pads add 0 + 0.
      kn.add(dh[l - 1].data.data(), ws.dz.data.data(), ws.dz.data.size());
    }
    timers.lap(kGconv);
  }
  timers.flush(1);
}

void Dgcnn::adam_step(std::size_t batch_size) {
  if (grads_.size() != params_.size() || adam_m_.size() != params_.size()) {
    throw std::logic_error("Dgcnn::adam_step: training state was dropped");
  }
  for (const Matrix& p : params_) {
    if (p.borrowed()) {
      // Mapped (zoo) weights are read-only views; training must go through
      // an owning copy (warm-start materializes before fine-tuning).
      throw std::logic_error("Dgcnn::adam_step: parameters are a read-only mapped view");
    }
  }
  const double b1 = 0.9, b2 = 0.999;
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
  const double scale = batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
  const KernelTable& kn = kernels();
  // Whole padded buffers: zero grad/m/v leave the zero pad weights zero.
  for_each_block(params_, [&](std::size_t p, int row_begin, int row_end) {
    const std::size_t begin = static_cast<std::size_t>(row_begin) * params_[p].ld;
    const std::size_t len = static_cast<std::size_t>(row_end - row_begin) * params_[p].ld;
    kn.adam_update(params_[p].data.data() + begin, grads_[p].data.data() + begin,
                   adam_m_[p].data.data() + begin, adam_v_[p].data.data() + begin, len,
                   cfg_.learning_rate, bc1, bc2, scale);
  });
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
