// Training loop for the DGCNN link predictor: shuffled minibatches, Adam,
// 10% validation split, and best-on-validation checkpointing (paper §IV:
// "save the model with the best performance on the 10% validation set").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "gnn/dgcnn.h"

namespace muxlink::gnn {

// Per-epoch training telemetry (DESIGN.md §7). AUCs are only computed when
// the caller asked for them (an extra prediction pass per epoch); they are
// NaN otherwise. grad_norm is the epoch mean of the per-batch L2 norms of
// the merged gradient, measured before each adam_step.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double val_accuracy = 0.0;
  double train_auc = 0.0;
  double val_auc = 0.0;
  double learning_rate = 0.0;
  double grad_norm = 0.0;
  double wall_seconds = 0.0;  // wall time of this epoch (incl. validation)
};

struct TrainOptions {
  int epochs = 100;
  int batch_size = 32;
  std::uint64_t seed = 1;  // shuffling/split seed (the model owns its own RNG)
  // Called after every epoch with (epoch, train_loss, val_accuracy).
  std::function<void(int, double, double)> on_epoch;

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
  // ({"model": telemetry_tag, "epoch": ..., "train_loss": ..., ...}).
  // Purely observational — enabling it never changes the trained model.
  common::JsonlWriter* telemetry = nullptr;
  std::string telemetry_tag;  // distinguishes ensemble members in one stream
  // Compute train/val ROC-AUC per epoch (for telemetry / on_epoch_stats).
  // Costs one extra forward pass per training sample per epoch; defaults to
  // on exactly when a telemetry stream is attached.
  bool telemetry_auc = true;
  // Richer per-epoch hook; independent of the JSONL stream.
  std::function<void(const EpochStats&)> on_epoch_stats;
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
// count half). Returns 0.5 when one class is absent.
double evaluate_auc(const Dgcnn& model, const std::vector<GraphSample>& samples);

// ROC-AUC from precomputed scores/labels via the O(n log n) rank-sum
// (Mann-Whitney) formulation with midrank tie correction. Equal to the
// pairwise statistic (ties count half); exposed for cross-checking.
double auc_from_scores(const std::vector<double>& scores, const std::vector<int>& labels);

}  // namespace muxlink::gnn
