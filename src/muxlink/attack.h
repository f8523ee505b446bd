// MuxLink: the paper's GNN-based link-prediction attack (Fig. 5).
//
// Pipeline on a bare locked netlist (oracle-less; no defender metadata):
//   1. trace key inputs, locate + remove the key MUXes;
//   2. build the undirected gate graph, mark the MUX input pairs as target
//      links (set S);
//   3. sample balanced positive/negative training links, extract h-hop
//      enclosing subgraphs, DRNL-label them;
//   4. train the DGCNN link predictor (10% validation, best checkpoint);
//   5. score each target link's likelihood;
//   6. post-process likelihoods into key bits (Algorithm 1 for paired /
//      shared localities, the δ-rule for single MUXes), X when undecided.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "attacks/key_trace.h"
#include "gnn/dgcnn.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "locking/resolve.h"
#include "muxlink/engine.h"
#include "netlist/netlist.h"

namespace muxlink::core {

struct MuxLinkOptions {
  int hops = 3;               // h: enclosing-subgraph radius (paper default)
  double threshold = 0.01;    // th: post-processing decision threshold
  std::size_t max_train_links = 100000;  // paper cap
  std::size_t max_subgraph_nodes = 0;    // 0 = unbounded
  std::uint64_t seed = 1;

  // DGCNN topology defaults follow §IV; sortpool_k is derived from the
  // training subgraph sizes (60th percentile) unless set here (> 0).
  int sortpool_k = 0;
  double learning_rate = 1e-4;
  double dropout = 0.5;
  int epochs = 100;
  int batch_size = 32;

  // Extension (not in the paper): train `ensemble` independently seeded
  // models and average the target-link likelihoods. Multiplies training
  // time; reduces the variance of the δ comparisons on small circuits.
  int ensemble = 1;

  // When non-empty, per-epoch training telemetry (loss, train/val AUC,
  // learning rate, gradient norm) is appended to this JSONL file — one
  // record per epoch per ensemble member (DESIGN.md §7). Observational
  // only: the trained models and the key are identical with or without it.
  std::string telemetry_path;

  // --- fault tolerance (DESIGN.md §8) ---------------------------------
  // When non-empty, each ensemble member writes a crash-safe checkpoint
  // (model + Adam moments + RNG/epoch cursor) to
  // `<checkpoint_dir>/model<e>.ckpt` every `checkpoint_every` epochs. The
  // directory is created if missing.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  // Restore training from the checkpoints in `checkpoint_dir` and finish
  // bit-identical to an uninterrupted run. Missing checkpoints (crash
  // before the first write) start from scratch; corrupt ones raise
  // gnn::CheckpointError.
  bool resume = false;
  // Numeric guardrails forwarded to the trainer: global-norm gradient
  // clipping (0 = off) and the divergence-rollback budget.
  double clip_grad = 0.0;
  int max_rollbacks = 3;
  // When non-empty, the trained model is saved here as an MXZOO1 blob with
  // its Adam moments (zoo/model_blob.h), usable as a warm-start ref; ensemble
  // members append ".<e>" before the extension.
  std::string model_out;

  // --- serving layer (DESIGN.md §11) ----------------------------------
  // Content-addressed model registry. When enabled, a run whose registry
  // key (circuit content, scheme, hops, feature config, seed — see
  // zoo/registry.h) already has blobs for every ensemble member skips
  // sampling and training and scores with the stored weights mmap'd in
  // place; otherwise it trains normally and inserts the result. Serving is
  // bit-transparent: a zoo-served run produces the same key and scores as
  // the training run that populated the entry.
  bool use_zoo = false;
  std::string zoo_dir;  // "" = MUXLINK_ZOO, else ~/.cache/muxlink/zoo
  std::string scheme;   // locking-scheme label folded into the key ("none")

  // Warm-start fine-tuning: a registry key or blob path to load (weights +
  // Adam moments) before training, with a shorter epoch budget and a
  // rescaled learning rate. The fine-tuned result is registered under a
  // key whose config hash folds in the warm-start ref, so it can never be
  // served to a cold run (DESIGN.md §11 coherence rule).
  std::string warm_start;
  int warm_epochs = 0;          // 0 = max(1, epochs / 4)
  double warm_lr_scale = 0.1;   // fine-tune LR = learning_rate * this

  // Per-link score cache (zoo runs only): target-link posteriors keyed by
  // everything they depend on, so a repeated attack skips subgraph
  // extraction + inference for links it has scored before. Bit-transparent
  // by the same contract; capacity bounds the entry count (LRU).
  bool score_cache = true;
  std::size_t score_cache_capacity = 1u << 20;
};

// Likelihood bookkeeping for one traced key MUX: the two candidate links
// and their GNN scores.
struct MuxLikelihood {
  attacks::TracedMux mux;
  double score_a = 0.0;  // likelihood of (input_a -> sink); key bit 0
  double score_b = 0.0;  // likelihood of (input_b -> sink); key bit 1
};

struct MuxLinkResult {
  std::vector<locking::KeyBit> key;  // indexed by key-bit
  std::vector<MuxLikelihood> likelihoods;
  std::vector<attacks::TracedLocality> localities;
  gnn::TrainReport training;
  int sortpool_k = 0;
  int feature_dim = 0;
  std::size_t training_links = 0;
  std::size_t target_links = 0;
  double sample_seconds = 0.0;
  double train_seconds = 0.0;
  double score_seconds = 0.0;
  double total_seconds = 0.0;
  int threads = 1;  // pool size the run used (common::num_threads())
  ServingStats serving;
};

class MuxLinkAttack {
 public:
  explicit MuxLinkAttack(const MuxLinkOptions& opts = {}) : opts_(opts) {}

  // Runs the full pipeline. Throws NetlistError when the netlist has no
  // key-controlled MUXes.
  MuxLinkResult run(const netlist::Netlist& locked);

  // Re-derives the key from the stored likelihoods under a different
  // threshold — no retraining needed (paper Fig. 9). Requires a prior run().
  std::vector<locking::KeyBit> post_process(double threshold) const;

  const MuxLinkOptions& options() const noexcept { return opts_; }

 private:
  MuxLinkOptions opts_;
  std::vector<MuxLikelihood> likelihoods_;
  std::vector<attacks::TracedLocality> localities_;
  std::size_t key_bits_ = 0;
};

// Rewires the locked netlist according to the deciphered key: decided bits
// hard-code their key input (the MUX folds away); X bits leave the key input
// free. `key[i]` pairs with key input i.
netlist::Netlist recover_design(const netlist::Netlist& locked,
                                const std::vector<locking::KeyBit>& key);

}  // namespace muxlink::core
