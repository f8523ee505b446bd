// Deep Graph Convolutional Neural Network (DGCNN [18]) for graph (= link)
// classification, exactly as configured in the paper (§III-D / §IV):
//   * L graph-conv layers H^{l+1} = tanh(D^-1 (A+I) H^l W^l),
//     channels {32, 32, 32, 1};
//   * SortPooling to k nodes, ordered by the last 1-channel layer;
//   * 1-D conv (16 ch, kernel = feature width) + max-pool(2) +
//     1-D conv (32 ch, kernel 5), ReLU;
//   * dense 128 + ReLU + dropout 0.5 + dense 2 + softmax.
// Forward, hand-written backprop, and Adam live here; no ML framework.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "gnn/matrix.h"

namespace muxlink::gnn {

// One input graph: sparse structure + binary node features + binary label.
// Adjacency is CSR (flat offsets + neighbor arrays, no self entries) so the
// propagation kernels stream one contiguous array instead of chasing a heap
// allocation per node; propagation uses (A+I) row-normalized, and the
// normalization factors 1/(1+deg) are precomputed once per sample in
// `inv_deg` instead of being recomputed on every propagate call.
// The node information matrix X (paper §III-B) is binary, so it is stored
// as per-node column lists in the same CSR shape: node i's active columns,
// strictly ascending, each with implicit value 1.0 — a few ints per node
// instead of a dense row of feature_dim doubles.
// gnn/encoding.cpp fills these from a Subgraph's CSR arrays.
struct GraphSample {
  std::vector<int> nbr_offsets{0};   // size num_nodes()+1
  std::vector<int> nbr;              // flattened neighbor lists
  std::vector<double> inv_deg;       // 1.0 / (1 + degree) per node
  std::vector<int> feat_offsets{0};  // size num_nodes()+1
  std::vector<int> feat;             // flattened active feature columns
  int label = 0;                     // 1 = link exists

  int num_nodes() const noexcept { return static_cast<int>(nbr_offsets.size()) - 1; }
  std::span<const int> neighbors(int i) const {
    return {nbr.data() + nbr_offsets[i],
            static_cast<std::size_t>(nbr_offsets[i + 1] - nbr_offsets[i])};
  }
  std::span<const int> features(int i) const {
    return {feat.data() + feat_offsets[i],
            static_cast<std::size_t>(feat_offsets[i + 1] - feat_offsets[i])};
  }
};

// U0 = D^-1 (A+I) X for the sample's binary X, as CSR rows: row i holds
// (c, count_c · inv_deg[i]) for every column c active in i or a neighbor,
// count_c being how many of them have it. Summing 1.0s is exact, so each
// value has the bits of the dense propagate kernels over a densified X, and
// the columns it omits are exactly that matrix's zeros. Reuses `out`'s
// capacity. The sample's feature lists must be valid (Dgcnn checks them).
void propagate_features(const GraphSample& s, CsrRows& out);

struct DgcnnConfig {
  std::vector<int> conv_channels{32, 32, 32, 1};
  int conv1d_channels1 = 16;
  int conv1d_channels2 = 32;
  int conv1d_kernel2 = 5;
  int dense_units = 128;
  double dropout = 0.5;
  int sortpool_k = 10;  // >= 10 so the second 1-D conv has support
  double learning_rate = 1e-4;
  std::uint64_t seed = 1;
};

class Dgcnn {
 public:
  Dgcnn(int feature_dim, const DgcnnConfig& config);

  // rows × cols of every parameter tensor, in save_parameters() order.
  // Throws std::invalid_argument for a topology no model can have (empty
  // conv stack, sortpool_k too small, a non-positive width, a tensor larger
  // than an int can index) without allocating it — model-file loaders check
  // a declared topology against their tensor table through this.
  static std::vector<std::pair<int, int>> parameter_shapes(int feature_dim,
                                                           const DgcnnConfig& config);

  const DgcnnConfig& config() const noexcept { return cfg_; }
  int feature_dim() const noexcept { return feature_dim_; }

  // Samples per layer-major slot. Forward and backward run graph conv and
  // SortPooling per sample, then each 1-D conv and dense layer — and their
  // gradients — as one matmul over the slot's stacked rows. Every entry
  // below goes through that one slot path, with 1..kSlotSamples samples.
  static constexpr std::size_t kSlotSamples = 4;

  // Probabilities that the graphs' links exist (class 1), for up to
  // kSlotSamples samples in one slot. A sample's score never depends on its
  // slot-mates. Mutates no model state, so any number of threads may score
  // one model (zoo-served handles are shared read-only).
  void score(std::span<const GraphSample* const> samples, double* out) const;
  // score() of a one-sample slot.
  double predict(const GraphSample& g) const;

  // A trainer slot's gradient accumulator (make_slot_gradients). Dense-1's
  // weight gradient, 128×576 and nearly all of a slot's buffer, stays
  // factored as the rows it is made of — each accumulated sample's dhid
  // and f — and merge_gradients expands it straight into the model's
  // accumulator; every other tensor accumulates densely. Per element the
  // merged sum is bit-identical to accumulating the slot's samples, in
  // order, into zeroed parameter-shaped buffers and adding those.
  struct SlotGradients {
    std::vector<Matrix> grads;  // parameter-shaped; dense-1's weight entry is empty
    Matrix dhid;                // accumulated samples × dense_units
    Matrix f;                   // accumulated samples × dense-1 inputs
  };
  SlotGradients make_slot_gradients() const;

  // The training entry: forward + backward for up to kSlotSamples samples,
  // sample i's dropout driven by dropout_seeds[i], accumulated into `slot`
  // in sample order. The result depends only on (parameters, samples,
  // seeds) — never on which thread runs it — and model state is untouched.
  // Returns the loss sum, added in sample order.
  double accumulate_gradients(std::span<const GraphSample* const> samples, SlotGradients& slot,
                              std::span<const std::uint64_t> dropout_seeds) const;

  // Adds the slots into the internal accumulators in slot order — for every
  // element the bits of adding each slot's expanded buffers in turn — and
  // empties them for reuse. Rows are independent, so the pool
  // splits the tensors and the result is the same at any thread count;
  // callers keep the slot order fixed (the trainer's batch layout).
  void merge_gradients(std::span<SlotGradients> slots);

  // Adam step over the gradients accumulated since the last step, averaged
  // over `batch_size` samples; clears the accumulators. Element-wise, so it
  // runs on the pool with the same bits at any thread count.
  void adam_step(std::size_t batch_size);

  // Parameter snapshot (for best-on-validation checkpointing).
  std::vector<Matrix> save_parameters() const;
  // The parameters and optimizer state in place, for serializers that only
  // read them (save_parameters and optimizer_state copy every tensor).
  const std::vector<Matrix>& parameters() const noexcept { return params_; }
  const std::vector<Matrix>& adam_first_moments() const noexcept { return adam_m_; }
  const std::vector<Matrix>& adam_second_moments() const noexcept { return adam_v_; }
  long adam_steps() const noexcept { return adam_t_; }
  void load_parameters(const std::vector<Matrix>& params);

  // Optimizer state (Adam moments + step counter) for crash-safe trainer
  // checkpoints (gnn/checkpoint.h): resuming mid-training is bit-identical
  // to an uninterrupted run only if the moments and step count survive too.
  struct OptimizerState {
    std::vector<Matrix> m;
    std::vector<Matrix> v;
    long t = 0;
  };
  OptimizerState optimizer_state() const { return {adam_m_, adam_v_, adam_t_}; }
  void set_optimizer_state(const OptimizerState& state);  // validates shapes
  // Zeros the moments and the step counter (divergence rollback: NaN-
  // poisoned moments must not leak into the restarted trajectory).
  void reset_optimizer();

  // Overrides the learning rate mid-training (divergence rollback decays
  // it; checkpoints carry the current value).
  void set_learning_rate(double lr) noexcept { cfg_.learning_rate = lr; }

  // Scales the accumulated (pre-adam_step) gradients in place — the
  // trainer's global-norm gradient clipping.
  void scale_gradients(double factor);

  // Accumulated (unaveraged) gradients since the last adam_step — exposed
  // for gradient-checking tests and optimizer experiments.
  const std::vector<Matrix>& gradients() const noexcept { return grads_; }
  void zero_gradients();

  // Frees the gradient accumulators and Adam moments, leaving a model that
  // can only score: the zoo's served handles never train, so they do not
  // carry ~2x their weights in training state. merge_gradients and
  // adam_step then throw std::logic_error.
  void drop_training_state();

  // Number of trainable scalars (for reporting).
  std::size_t num_parameters() const;

  // Opaque per-thread slot scratch (defined in dgcnn.cpp).
  struct Workspace;

 private:
  // The slot path. `rngs` drives dropout (one generator per sample; entries
  // may alias) and is null for inference. Const so the parallel paths can
  // share one model during a batch (weights read-only).
  void forward(std::span<const GraphSample* const> slot, Workspace& ws,
               std::mt19937_64* const* rngs) const;
  // Accumulates every gradient but dense-1's weight into `grads`; that one
  // stays factored in the workspace (dhid, f) for the caller.
  void backward(std::span<const GraphSample* const> slot, Workspace& ws,
                std::vector<Matrix>& grads) const;
  double slot_loss(std::span<const GraphSample* const> slot, const Workspace& ws) const;

  DgcnnConfig cfg_;
  int feature_dim_;
  int cat_dim_ = 0;    // sum of conv channels (SortPooling row width)
  int pooled_len_ = 0; // frames after max-pool
  int conv2_len_ = 0;  // frames after the second 1-D conv

  // Parameters, gradients, and Adam moments share indexing.
  std::vector<Matrix> params_;
  std::vector<Matrix> grads_;
  std::vector<Matrix> adam_m_;
  std::vector<Matrix> adam_v_;
  long adam_t_ = 0;

  // Parameter indices.
  std::vector<int> w_conv_;  // graph conv weights
  int k1_ = -1, b1_ = -1;    // 1-D conv 1
  int k2_ = -1, b2_ = -1;    // 1-D conv 2
  int w5_ = -1, b5_ = -1;    // dense 128
  int w6_ = -1, b6_ = -1;    // dense 2
};

// Chooses SortPooling k so that `fraction` of the given subgraph sizes are
// <= k (paper: 60%), floored at 10 so the conv stack has support.
int choose_sortpool_k(std::vector<int> subgraph_sizes, double fraction = 0.6);

}  // namespace muxlink::gnn
