#include "gnn/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gnn/checkpoint.h"
#include "gnn/simd.h"

namespace muxlink::gnn {

namespace {

// Samples per gradient slot: one layer-major Dgcnn slot. Chunking is fixed
// (independent of the thread count), so the slot a sample lands in — and
// therefore the floating-point reduction order — is identical whether 1 or
// 64 threads run the batch.
constexpr std::size_t kGradChunk = Dgcnn::kSlotSamples;
// Samples per evaluation task (predictions are cheap; amortize dispatch),
// scored kSlotSamples at a time.
constexpr std::size_t kEvalChunk = 16;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<const GraphSample*> pointers_to(const std::vector<GraphSample>& samples) {
  std::vector<const GraphSample*> ptrs;
  ptrs.reserve(samples.size());
  for (const GraphSample& s : samples) ptrs.push_back(&s);
  return ptrs;
}

// Scores every sample in slots on the thread pool; a sample's score does
// not depend on its slot-mates, so neither does the result on the thread
// count.
std::vector<double> score_all(const Dgcnn& model, const std::vector<const GraphSample*>& samples) {
  std::vector<double> scores(samples.size());
  common::parallel_for(samples.size(), kEvalChunk,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; i += Dgcnn::kSlotSamples) {
                           const std::size_t n = std::min(Dgcnn::kSlotSamples, end - i);
                           model.score({samples.data() + i, n}, scores.data() + i);
                         }
                       });
  return scores;
}

double accuracy_of(const Dgcnn& model, const std::vector<const GraphSample*>& samples) {
  if (samples.empty()) return 0.0;
  const std::vector<double> scores = score_all(model, samples);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if ((scores[i] >= 0.5) == (samples[i]->label == 1)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(samples.size());
}

double auc_of(const Dgcnn& model, const std::vector<const GraphSample*>& samples) {
  if (samples.empty()) return 0.5;
  std::vector<int> labels(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) labels[i] = samples[i]->label;
  return auc_from_scores(score_all(model, samples), labels);
}

double grad_sumsq(const std::vector<Matrix>& grads) {
  // sumsq_acc chains each tensor from the running accumulator, preserving
  // the single cross-tensor summation chain of the scalar oracle (the pad
  // lanes contribute exact +0 terms).
  const KernelTable& kn = kernels();
  double s = 0.0;
  for (const Matrix& m : grads) s = kn.sumsq_acc(s, m.data.data(), m.data.size());
  return s;
}

}  // namespace

double evaluate_accuracy(const Dgcnn& model, const std::vector<GraphSample>& samples) {
  return accuracy_of(model, pointers_to(samples));
}

double auc_from_scores(const std::vector<double>& scores, const std::vector<int>& labels) {
  // A NaN score has no rank: it would also break the sort's strict weak
  // ordering and stall the tie scan below, which advances on ==.
  if (std::any_of(scores.begin(), scores.end(), [](double s) { return std::isnan(s); })) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::size_t npos = 0;
  for (int l : labels) npos += l == 1 ? 1 : 0;
  const std::size_t nneg = labels.size() - npos;
  if (npos == 0 || nneg == 0) return 0.5;

  // Rank-sum (Mann-Whitney) formulation, O(n log n): sort by score, assign
  // midranks to ties (this IS the tie correction — each tied pair
  // contributes exactly 1/2), and sum the positive ranks.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  double rank_sum_pos = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    // 1-based ranks i+1 .. j share the midrank.
    const double midrank = 0.5 * static_cast<double>(i + 1 + j);
    for (std::size_t t = i; t < j; ++t) {
      if (labels[order[t]] == 1) rank_sum_pos += midrank;
    }
    i = j;
  }
  const double u = rank_sum_pos - 0.5 * static_cast<double>(npos) * static_cast<double>(npos + 1);
  return u / (static_cast<double>(npos) * static_cast<double>(nneg));
}

double evaluate_auc(const Dgcnn& model, const std::vector<GraphSample>& samples) {
  return auc_of(model, pointers_to(samples));
}

TrainReport train_link_predictor(Dgcnn& model, const std::vector<GraphSample>& samples,
                                 const TrainOptions& opts) {
  MUXLINK_TRACE("gnn.train");
  TrainReport report;
  if (samples.empty()) return report;
  std::mt19937_64 rng(opts.seed);

  // Split train/validation.
  std::vector<std::size_t> index(samples.size());
  std::iota(index.begin(), index.end(), 0);
  std::shuffle(index.begin(), index.end(), rng);
  constexpr double kValidationFraction = 0.1;
  std::size_t val_count =
      static_cast<std::size_t>(kValidationFraction * static_cast<double>(samples.size()));
  // A validation set this small cannot rank checkpoints meaningfully; fall
  // back to training on everything and validating on everything.
  if (val_count < 8) val_count = 0;
  std::vector<const GraphSample*> val;
  std::vector<const GraphSample*> train;
  for (std::size_t i = 0; i < index.size(); ++i) {
    (i < val_count ? val : train).push_back(&samples[index[i]]);
  }
  if (val.empty()) val = pointers_to(samples);  // tiny datasets
  report.train_samples = train.size();
  report.val_samples = val.size();

  std::vector<Matrix> best = model.save_parameters();
  double best_acc = -1.0;
  double best_loss = std::numeric_limits<double>::infinity();
  int best_epoch = -1;
  int start_epoch = 1;

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  // Crash-safe resume: restore the complete trainer state (parameters,
  // Adam moments, best-so-far tracking, decayed LR) from the checkpoint.
  // The batch order is CUMULATIVE state — epoch k shuffles the permutation
  // epoch k-1 left behind — so it is re-derived by replaying the k epoch
  // shuffles (the only RNG consumers besides the split above). That replay
  // also walks the RNG to exactly where the interrupted run left it, which
  // the checkpoint's serialized RNG state cross-checks: any drift (e.g. a
  // different training-set size) fails loudly instead of resuming into a
  // not-quite-identical trajectory (DESIGN.md §8).
  if (opts.resume && !opts.checkpoint_path.empty() &&
      std::filesystem::exists(opts.checkpoint_path)) {
    const TrainerCheckpoint ckpt = load_checkpoint_file(opts.checkpoint_path);
    if (ckpt.seed != opts.seed || ckpt.total_epochs != opts.epochs) {
      throw CheckpointError("'" + opts.checkpoint_path + "' was written by a run with seed " +
                            std::to_string(ckpt.seed) + "/" +
                            std::to_string(ckpt.total_epochs) + " epochs; this run has " +
                            std::to_string(opts.seed) + "/" + std::to_string(opts.epochs) +
                            " — resume would not be bit-identical");
    }
    try {
      model.load_parameters(ckpt.params);
      model.set_optimizer_state({ckpt.adam_m, ckpt.adam_v, ckpt.adam_t});
    } catch (const std::invalid_argument& e) {
      throw CheckpointError("'" + opts.checkpoint_path +
                            "' does not match the model topology: " + e.what());
    }
    model.set_learning_rate(ckpt.learning_rate);
    for (int e = 1; e <= ckpt.epoch; ++e) std::shuffle(order.begin(), order.end(), rng);
    std::ostringstream rng_check;
    rng_check << rng;
    if (rng_check.str() != ckpt.rng_state) {
      throw CheckpointError("'" + opts.checkpoint_path +
                            "' RNG state does not match the replayed epochs (training set "
                            "changed?) — resume would not be bit-identical");
    }
    best = ckpt.best_params;
    best_acc = ckpt.best_val_accuracy;
    best_loss = ckpt.best_train_loss;
    best_epoch = ckpt.best_epoch;
    start_epoch = ckpt.epoch + 1;
    report.rollbacks = ckpt.rollbacks;
    report.resumed_from_epoch = ckpt.epoch;
    MUXLINK_COUNTER_ADD("gnn.train.resumes", 1);
  }

  // Per-slot gradient buffers: a batch is cut into fixed kGradChunk-sample
  // slots; each slot accumulates its samples' gradients sequentially (in
  // sample order) into its own buffer, and the buffers are reduced into the
  // model in slot order. Both orders depend only on the batch layout, so
  // training is bit-identical for any thread count.
  const std::size_t batch = static_cast<std::size_t>(std::max(1, opts.batch_size));
  const std::size_t max_slots = common::num_chunks(batch, kGradChunk);
  std::vector<Dgcnn::SlotGradients> slot_grads;
  slot_grads.reserve(max_slots);
  for (std::size_t s = 0; s < max_slots; ++s) slot_grads.push_back(model.make_slot_gradients());
  std::vector<double> slot_loss(max_slots, 0.0);

  // Telemetry is purely observational: the extra reductions below (gradient
  // norms, AUC passes) read model state but never write it, so a run with
  // telemetry on trains the exact same model as one with it off.
  //
  // Gradient norms are needed per batch for telemetry AND for clipping;
  // computing them is a full pass over the gradient tensors, so it stays
  // off unless one of the two asked for it (guardrail-overhead budget:
  // <= 2% on bench_pipeline with both off).
  const bool want_norm = opts.telemetry != nullptr || opts.clip_grad > 0.0;

  for (int epoch = start_epoch; epoch <= opts.epochs; ++epoch) {
    MUXLINK_TRACE("gnn.train.epoch");
    const auto t_epoch = std::chrono::steady_clock::now();
    std::shuffle(order.begin(), order.end(), rng);
    // Dropout seeds derive from (seed, epoch, position-in-epoch) — never
    // from a shared sequential RNG — so each sample's mask is the same no
    // matter which thread evaluates it.
    const std::uint64_t epoch_salt =
        splitmix64(opts.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(epoch));
    double loss_sum = 0.0;
    double grad_norm_sum = 0.0;
    std::size_t num_batches = 0;
    for (std::size_t batch_start = 0; batch_start < order.size(); batch_start += batch) {
      const std::size_t bsz = std::min(batch, order.size() - batch_start);
      const std::size_t slots = common::num_chunks(bsz, kGradChunk);
      common::parallel_for(
          bsz, kGradChunk, [&](std::size_t begin, std::size_t end, std::size_t slot) {
            const GraphSample* members[kGradChunk];
            std::uint64_t seeds[kGradChunk];
            for (std::size_t i = begin; i < end; ++i) {
              const std::size_t pos = batch_start + i;
              members[i - begin] = train[order[pos]];
              seeds[i - begin] = splitmix64(epoch_salt + pos);
            }
            slot_loss[slot] = model.accumulate_gradients({members, end - begin},
                                                         slot_grads[slot], {seeds, end - begin});
          });
      model.merge_gradients({slot_grads.data(), slots});
      for (std::size_t s = 0; s < slots; ++s) loss_sum += slot_loss[s];
      if (want_norm) {
        // Norm of the merged (unaveraged) batch gradient; telemetry
        // reports the pre-clip value.
        const double norm = std::sqrt(grad_sumsq(model.gradients()));
        grad_norm_sum += norm;
        if (opts.clip_grad > 0.0) {
          const double avg_norm = norm / static_cast<double>(bsz);
          if (std::isfinite(avg_norm) && avg_norm > opts.clip_grad) {
            model.scale_gradients(opts.clip_grad / avg_norm);
          }
        }
      }
      model.adam_step(bsz);
      ++num_batches;
    }
    double train_loss =
        train.empty() ? 0.0 : loss_sum / static_cast<double>(train.size());
    common::fault::poison("train.loss", train_loss);  // divergence drill hook

    // Numeric guardrails (DESIGN.md §8): a NaN/Inf loss or gradient norm
    // means the trajectory diverged. Rather than aborting hours of work,
    // roll back to the best-so-far parameters, drop the NaN-poisoned Adam
    // moments, decay the LR, and keep going — up to max_rollbacks times.
    const bool diverged =
        !std::isfinite(train_loss) || (want_norm && !std::isfinite(grad_norm_sum));
    if (diverged) {
      ++report.rollbacks;
      MUXLINK_COUNTER_ADD("gnn.train.divergence_rollbacks", 1);
      if (report.rollbacks > opts.max_rollbacks) break;  // keep best checkpoint
      model.load_parameters(best);
      model.reset_optimizer();
      constexpr double kRollbackLrDecay = 0.5;
      model.set_learning_rate(model.config().learning_rate * kRollbackLrDecay);
      continue;  // the diverged epoch updates no best/telemetry/checkpoint
    }
    const double val_acc = accuracy_of(model, val);
    // Ties on validation accuracy (common with small validation sets) are
    // broken toward the lower training loss, so a lucky early epoch cannot
    // pin the checkpoint.
    if (val_acc > best_acc || (val_acc == best_acc && train_loss < best_loss)) {
      best_acc = val_acc;
      best_loss = train_loss;
      best_epoch = epoch;
      best = model.save_parameters();
    }
    report.final_train_loss = train_loss;
    MUXLINK_COUNTER_ADD("gnn.train.epochs", 1);
    MUXLINK_COUNTER_ADD("gnn.train.batches", static_cast<std::int64_t>(num_batches));
    MUXLINK_COUNTER_ADD("gnn.train.samples", static_cast<std::int64_t>(train.size()));
    if (opts.telemetry) {
      // One JSONL record per epoch (DESIGN.md §7). grad_norm is the epoch
      // mean of the per-batch merged-gradient L2 norms, taken before each
      // adam_step; wall_seconds includes validation and the AUC passes.
      common::Json rec = common::Json::object();
      if (!opts.telemetry_tag.empty()) rec["model"] = opts.telemetry_tag;
      rec["epoch"] = epoch;
      rec["train_loss"] = train_loss;
      rec["val_accuracy"] = val_acc;
      rec["train_auc"] = auc_of(model, train);
      rec["val_auc"] = auc_of(model, val);
      rec["learning_rate"] = model.config().learning_rate;
      rec["grad_norm"] = num_batches ? grad_norm_sum / static_cast<double>(num_batches) : 0.0;
      rec["wall_seconds"] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t_epoch).count();
      opts.telemetry->write(rec);
    }

    // Crash-safe checkpoint: complete state, atomically replaced. Written
    // at the cadence the caller asked for, and always on the final epoch
    // so a finished run leaves a loadable artifact.
    if (!opts.checkpoint_path.empty() &&
        (epoch % std::max(1, opts.checkpoint_every) == 0 || epoch == opts.epochs)) {
      TrainerCheckpoint ckpt;
      ckpt.seed = opts.seed;
      ckpt.total_epochs = opts.epochs;
      ckpt.epoch = epoch;
      ckpt.learning_rate = model.config().learning_rate;
      ckpt.rollbacks = report.rollbacks;
      ckpt.best_epoch = best_epoch;
      ckpt.best_val_accuracy = best_acc;
      ckpt.best_train_loss = best_loss;
      std::ostringstream rng_out;
      rng_out << rng;
      ckpt.rng_state = rng_out.str();
      ckpt.params = model.save_parameters();
      ckpt.best_params = best;
      auto opt_state = model.optimizer_state();
      ckpt.adam_t = opt_state.t;
      ckpt.adam_m = std::move(opt_state.m);
      ckpt.adam_v = std::move(opt_state.v);
      save_checkpoint_file(ckpt, opts.checkpoint_path);
      MUXLINK_COUNTER_ADD("gnn.train.checkpoints", 1);
    }
    // Kill-and-resume drill site: fires AFTER the epoch's checkpoint (if
    // any) has landed, so `train.epoch:k` simulates a crash with exactly k
    // completed epochs on disk.
    MUXLINK_FAULT_POINT("train.epoch");
  }

  model.load_parameters(best);
  report.best_epoch = best_epoch;
  report.best_val_accuracy = best_acc;
  return report;
}

}  // namespace muxlink::gnn
