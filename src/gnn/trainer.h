// Training loop for the DGCNN link predictor: shuffled minibatches, Adam,
// 10% validation split, and best-on-validation checkpointing (paper §IV:
// "save the model with the best performance on the 10% validation set").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "gnn/dgcnn.h"

namespace muxlink::gnn {

struct TrainOptions {
  int epochs = 100;
  int batch_size = 32;
  std::uint64_t seed = 1;  // shuffling/split and per-sample dropout seed

  // --- numeric guardrails (DESIGN.md §8) ------------------------------
  // Global-norm gradient clipping: when > 0, each batch's mean gradient is
  // rescaled so its L2 norm never exceeds this. 0 disables clipping (and
  // its per-batch norm computation).
  double clip_grad = 0.0;
  // Divergence handling: every epoch the train loss (and the gradient
  // norm, whenever it is computed) is scanned for NaN/Inf. A diverged
  // epoch rolls the model back to the best-so-far parameters, resets the
  // Adam moments (they may be NaN-poisoned), and halves the learning rate
  // — instead of aborting the run. After `max_rollbacks` rollbacks training
  // stops early, keeping the best checkpoint so far.
  int max_rollbacks = 3;

  // --- crash-safe checkpointing (DESIGN.md §8) ------------------------
  // When non-empty, the complete trainer state is written atomically to
  // this file every `checkpoint_every` epochs (and on the final epoch).
  // Observational: a run with checkpointing on trains the same model as
  // one with it off.
  std::string checkpoint_path;
  int checkpoint_every = 1;
  // Restore from `checkpoint_path` and continue. A missing file starts
  // training from scratch (first run / crash before the first write); a
  // corrupt file or one whose seed/epoch budget differs from this run
  // raises CheckpointError. Because the trainer is deterministic, a
  // resumed run finishes bit-identical to an uninterrupted one.
  bool resume = false;

  // Telemetry stream: when set, one JSONL record per epoch is appended
  // ({"model": telemetry_tag, "epoch", "train_loss", "val_accuracy",
  // "train_auc", "val_auc", "learning_rate", "grad_norm", "wall_seconds"}).
  // The AUCs cost one extra forward pass per sample per epoch. Purely
  // observational — enabling it never changes the trained model.
  common::JsonlWriter* telemetry = nullptr;
  std::string telemetry_tag;  // distinguishes ensemble members in one stream
};

struct TrainReport {
  int best_epoch = -1;
  double best_val_accuracy = 0.0;
  double final_train_loss = 0.0;
  std::size_t train_samples = 0;
  std::size_t val_samples = 0;
  int rollbacks = 0;           // divergence rollbacks taken (guardrails)
  int resumed_from_epoch = 0;  // 0 = fresh run; N = restored after epoch N
};

// Trains `model` on `samples` (split internally into train/validation) and
// leaves the best-validation parameters loaded. With fewer than 10 samples
// the whole set is used for training and validation alike.
TrainReport train_link_predictor(Dgcnn& model, const std::vector<GraphSample>& samples,
                                 const TrainOptions& opts = {});

// Validation/test accuracy of the current parameters: prediction >= 0.5
// counts as class 1. Predictions run in parallel on the global thread pool.
double evaluate_accuracy(const Dgcnn& model, const std::vector<GraphSample>& samples);

// ROC-AUC of the current parameters over `samples` (rank statistic; ties
// count half). Returns 0.5 when one class is absent and NaN when a score is
// NaN (diverged parameters).
double evaluate_auc(const Dgcnn& model, const std::vector<GraphSample>& samples);

// ROC-AUC from precomputed scores/labels via the O(n log n) rank-sum
// (Mann-Whitney) formulation with midrank tie correction. Equal to the
// pairwise statistic (ties count half); exposed for cross-checking. Any NaN
// score makes the result quiet NaN, the telemetry's "not computed" value.
double auc_from_scores(const std::vector<double>& scores, const std::vector<int>& labels);

}  // namespace muxlink::gnn
