// Small fully-connected network (ReLU hidden layers, 2-way softmax head)
// on the same Matrix/Adam machinery as the DGCNN. Used by the SnapShot-like
// baseline attack (fixed-length locality vectors -> key-bit prediction).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "gnn/matrix.h"

namespace muxlink::gnn {

struct MlpConfig {
  std::vector<int> hidden{64, 32};
  double learning_rate = 1e-3;
  double dropout = 0.0;
  std::uint64_t seed = 1;
};

class Mlp {
 public:
  Mlp(int input_dim, const MlpConfig& config);

  // P(class = 1).
  double predict(const std::vector<double>& x, bool training = false);
  // Forward + backward; accumulates gradients, returns CE loss.
  double accumulate_gradients(const std::vector<double>& x, int label);
  void adam_step(std::size_t batch_size);

  std::vector<Matrix> save_parameters() const { return params_; }
  void load_parameters(const std::vector<Matrix>& p);
  std::size_t num_parameters() const;
  const std::vector<Matrix>& gradients() const noexcept { return grads_; }
  void zero_gradients();

 private:
  struct Workspace {
    std::vector<std::vector<double>> act;   // per layer post-activation
    std::vector<std::vector<double>> mask;  // dropout masks
    double prob1 = 0.0;
  };
  double forward(const std::vector<double>& x, bool training, Workspace& ws);

  MlpConfig cfg_;
  int input_dim_;
  std::mt19937_64 rng_;
  std::vector<int> dims_;  // input, hidden..., 2
  std::vector<Matrix> params_;  // alternating W (out x in), b (1 x out)
  std::vector<Matrix> grads_;
  std::vector<Matrix> adam_m_;
  std::vector<Matrix> adam_v_;
  long adam_t_ = 0;
};

// Training with validation split + best checkpoint, mirroring the DGCNN
// trainer but over flat vectors.
struct MlpSample {
  std::vector<double> x;
  int label = 0;
};

struct MlpTrainOptions {
  int epochs = 60;
  int batch_size = 32;
  std::uint64_t seed = 1;
};

struct MlpTrainReport {
  int best_epoch = -1;
  double best_val_accuracy = 0.0;
};

MlpTrainReport train_mlp(Mlp& model, const std::vector<MlpSample>& samples,
                         const MlpTrainOptions& opts = {});
double evaluate_mlp_accuracy(Mlp& model, const std::vector<MlpSample>& samples);

}  // namespace muxlink::gnn
