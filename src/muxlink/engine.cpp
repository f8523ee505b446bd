#include "muxlink/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gnn/encoding.h"
#include "gnn/simd.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "muxlink/attack.h"
#include "netlist/bench_io.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"
#include "zoo/score_cache.h"

namespace muxlink::core {

using netlist::GateId;
using netlist::Netlist;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

graph::Link target_link(const graph::CircuitGraph& g, GateId driver, GateId sink) {
  const auto u = g.node_of(driver);
  const auto v = g.node_of(sink);
  if (u == graph::kNoNode || v == graph::kNoNode) {
    throw netlist::NetlistError("MuxLink: target endpoints missing from the gate graph");
  }
  return {static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v)};
}

// Raw IEEE-754 bits as 16 hex digits — doubles enter the registry key by
// bit pattern, never by decimal round-trip.
std::string bits_of(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return zoo::hex64(u);
}

// Canonical training-config string behind the registry key's config hash:
// every knob (beyond the key's explicit fields) that could perturb a single
// trained bit. The kernel ISA is part of it because scalar and AVX2 kernels
// round differently; a warm-start run folds in its ref + schedule so its
// output can never be served to a cold run (DESIGN.md §11). The target-set
// hash is part of it because targets are excluded from training-link
// sampling — a different target list trains a different model.
std::string config_string(const MuxLinkOptions& o, const char* isa, std::uint64_t targets_hash) {
  const gnn::DgcnnConfig d;  // topology defaults the run will instantiate
  std::string s = "epochs=" + std::to_string(o.epochs);
  s += ";batch=" + std::to_string(o.batch_size);
  s += ";lr=" + bits_of(o.learning_rate);
  s += ";dropout=" + bits_of(o.dropout);
  s += ";max_links=" + std::to_string(o.max_train_links);
  s += ";max_nodes=" + std::to_string(o.max_subgraph_nodes);
  s += ";ensemble=" + std::to_string(std::max(1, o.ensemble));
  s += ";clip=" + bits_of(o.clip_grad);
  s += ";rollbacks=" + std::to_string(o.max_rollbacks);
  s += ";sortpool=" + std::to_string(o.sortpool_k);
  s += ";isa=";
  s += isa;
  s += ";conv=";
  for (int c : d.conv_channels) {
    s += std::to_string(c);
    s += ',';
  }
  s += ";head=" + std::to_string(d.conv1d_channels1) + "," + std::to_string(d.conv1d_channels2) +
       "," + std::to_string(d.conv1d_kernel2) + "," + std::to_string(d.dense_units);
  s += ";targets=" + zoo::hex64(targets_hash);
  if (!o.warm_start.empty()) {
    s += ";warm=" + o.warm_start;
    s += ";warm_epochs=" + std::to_string(o.warm_epochs);
    s += ";warm_lr=" + bits_of(o.warm_lr_scale);
  }
  return s;
}

// Rewrites the `-m<member>` suffix of a registry-style ref for ensemble
// member `e`; returns the ref unchanged when it does not end that way.
std::string member_ref(const std::string& ref, int e) {
  const auto pos = ref.rfind("-m");
  if (pos == std::string::npos || pos + 2 >= ref.size()) return ref;
  for (std::size_t i = pos + 2; i < ref.size(); ++i) {
    if (ref[i] < '0' || ref[i] > '9') return ref;
  }
  return ref.substr(0, pos + 2) + std::to_string(e);
}

}  // namespace

EngineResult score_links(const Netlist& locked, const std::vector<GateId>& excluded,
                         const std::vector<TargetWire>& targets, const MuxLinkOptions& opts) {
  EngineResult result;

  // (2) Build the gate graph with the key MUXes removed.
  const graph::CircuitGraph g = [&] {
    MUXLINK_TRACE("attack.graph_build");
    return graph::build_circuit_graph(locked, excluded);
  }();

  std::vector<graph::Link> links;
  links.reserve(targets.size());
  for (const auto& [driver, sink] : targets) links.push_back(target_link(g, driver, sink));

  // Serving layer (DESIGN.md §11): resolve the registry and this run's
  // content-addressed keys before any expensive stage — a full zoo hit
  // replaces sampling AND training with an mmap per ensemble member.
  const int feature_dim = gnn::feature_dim_for_hops(opts.hops);
  const int ensemble = std::max(1, opts.ensemble);
  std::optional<zoo::Registry> registry;
  std::vector<std::string> member_keys;
  if (opts.use_zoo) {
    registry.emplace(zoo::Registry::resolve_dir(opts.zoo_dir));
    std::string target_names;
    for (const auto& [driver, sink] : targets) {
      target_names += locked.gate(driver).name;
      target_names += "->";
      target_names += locked.gate(sink).name;
      target_names += '|';
    }
    zoo::ZooKey key;
    key.circuit_hash = zoo::fnv1a64(netlist::write_bench(locked));
    key.scheme = opts.scheme.empty() ? "none" : opts.scheme;
    key.hops = opts.hops;
    key.feature_dim = feature_dim;
    key.seed = opts.seed;
    key.config_hash =
        zoo::fnv1a64(config_string(opts, gnn::kernels().isa, zoo::fnv1a64(target_names)));
    member_keys.reserve(ensemble);
    for (int e = 0; e < ensemble; ++e) {
      key.member = e;
      member_keys.push_back(key.str());
    }
    result.serving.zoo_enabled = true;
    result.serving.zoo_key = member_keys[0];
    result.serving.warm_start = !opts.warm_start.empty();
  }

  // Probe the registry: serve only when EVERY ensemble member is present
  // and loads cleanly (a corrupt or foreign entry silently falls back to
  // training, which re-inserts a fresh blob over it). Handles come from the
  // registry's process-wide cache, so a blob this process already verified
  // costs a stat and an LRU bump, not a map + CRC pass.
  std::vector<std::shared_ptr<const zoo::LoadedModel>> served;
  bool zoo_hit = false;
  if (registry) {
    MUXLINK_TRACE("attack.zoo_probe");
    zoo_hit = true;
    for (const std::string& k : member_keys) {
      try {
        auto lm = registry->serve(k);  // LRU bump on hit
        if (!lm) {
          zoo_hit = false;
          break;
        }
        if (lm->model.feature_dim() != feature_dim) throw zoo::ZooError("feature dim mismatch");
        served.push_back(std::move(lm));
      } catch (const zoo::ZooError&) {
        zoo_hit = false;
        break;
      }
    }
    if (!zoo_hit) served.clear();
    // Two call sites: the counter macro binds its cell to the FIRST name it
    // sees, so a ternary name would fold hits and misses together.
    if (zoo_hit) {
      MUXLINK_COUNTER_ADD("serving.zoo_hits", 1);
    } else {
      MUXLINK_COUNTER_ADD("serving.zoo_misses", 1);
    }
  }
  result.serving.zoo_hit = zoo_hit;

  graph::SubgraphOptions sgopts;
  sgopts.hops = opts.hops;
  sgopts.max_nodes = opts.max_subgraph_nodes;

  std::vector<gnn::Dgcnn> models;          // trained (or fine-tuned) this run
  std::vector<const gnn::Dgcnn*> scorers;  // what step (5) predicts with
  scorers.reserve(ensemble);
  int sortpool_k = 0;
  if (zoo_hit) {
    // Weights stay mmap'd for the scoring pass — zero tensor copies.
    for (const auto& lm : served) {
      result.serving.bytes_mapped += lm->bytes_mapped;
      scorers.push_back(&lm->model);
    }
    sortpool_k = served[0]->model.config().sortpool_k;
    MUXLINK_GAUGE_SET("serving.bytes_mapped",
                      static_cast<std::int64_t>(result.serving.bytes_mapped));
  } else {
    // (3) Sample training links and extract enclosing subgraphs. Each link's
    // subgraph is independent; extraction + DRNL labeling + encoding run on
    // the thread pool with results written by index (thread-count invariant).
    const auto t_sample = std::chrono::steady_clock::now();
    graph::SamplingOptions sopts;
    sopts.max_links = opts.max_train_links;
    sopts.seed = opts.seed;
    const auto link_samples = graph::sample_links(g, links, sopts);
    if (link_samples.empty()) throw netlist::NetlistError("MuxLink: no training links available");

    std::vector<gnn::GraphSample> train_set(link_samples.size());
    std::vector<int> sizes(link_samples.size());
    {
      MUXLINK_TRACE("attack.sample");
      common::parallel_for(link_samples.size(), 8,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t i = begin; i < end; ++i) {
                               const auto& ls = link_samples[i];
                               const auto sg =
                                   graph::extract_enclosing_subgraph(g, ls.link, sgopts);
                               sizes[i] = static_cast<int>(sg.num_nodes());
                               train_set[i] =
                                   gnn::encode_subgraph(sg, opts.hops, ls.positive ? 1 : 0);
                             }
                           });
    }
    result.training_links = train_set.size();
    result.sample_seconds = seconds_since(t_sample);
    MUXLINK_COUNTER_ADD("attack.training_links", static_cast<std::int64_t>(train_set.size()));
    MUXLINK_FAULT_POINT("attack.sample.done");

    // (4) Train the DGCNN (or an ensemble of independently seeded models).
    // Models are constructed sequentially (deterministic init), then trained
    // concurrently; each training run is itself deterministic, so the outer
    // parallelism cannot change any result. Pool threads the ensemble loop
    // leaves idle (all but one at ensemble == 1) join the trainer's per-batch
    // loops.
    const auto t_train = std::chrono::steady_clock::now();
    sortpool_k = opts.sortpool_k > 0 ? opts.sortpool_k : gnn::choose_sortpool_k(sizes);
    models.reserve(ensemble);
    const bool warm = !opts.warm_start.empty();
    int train_epochs = opts.epochs;
    if (warm) {
      // Warm start: preload each member's weights AND Adam moments from the
      // ref blob, shrink the epoch budget, rescale the LR. The trainer trains
      // in place from the model's current state, so fine-tuning continues the
      // stored trajectory deterministically.
      MUXLINK_TRACE("attack.warm_load");
      train_epochs = opts.warm_epochs > 0 ? opts.warm_epochs : std::max(1, opts.epochs / 4);
      for (int e = 0; e < ensemble; ++e) {
        const std::string ref = member_ref(opts.warm_start, e);
        // One find() per candidate, its result used as is: an entry that a
        // concurrent gc evicts is a miss, never a dangling lookup.
        const auto in_registry = [&](const std::string& k) {
          return registry ? registry->find(k) : std::nullopt;
        };
        std::optional<std::filesystem::path> blob;
        std::error_code ec;
        if (std::filesystem::is_regular_file(ref, ec)) blob = ref;
        if (!blob) blob = in_registry(ref);
        if (!blob) blob = in_registry(opts.warm_start);
        if (!blob) {
          throw zoo::ZooError("warm-start ref '" + opts.warm_start +
                              "' is neither a blob file nor a registry entry");
        }
        zoo::LoadOptions lopts;
        lopts.with_optimizer = true;
        zoo::LoadedModel lm = zoo::load_model_blob(*blob, lopts);
        if (lm.model.feature_dim() != feature_dim) {
          throw zoo::ZooError("warm-start ref '" + ref + "' has feature dim " +
                              std::to_string(lm.model.feature_dim()) + ", this run needs " +
                              std::to_string(feature_dim));
        }
        lm.materialize();  // fine-tuning writes weights in place
        lm.model.set_learning_rate(opts.learning_rate * opts.warm_lr_scale);
        models.push_back(std::move(lm.model));
        sortpool_k = models[0].config().sortpool_k;  // fixed at construction
      }
      MUXLINK_COUNTER_ADD("serving.warm_starts", 1);
    } else {
      for (int e = 0; e < ensemble; ++e) {
        gnn::DgcnnConfig cfg;
        cfg.sortpool_k = sortpool_k;
        cfg.learning_rate = opts.learning_rate;
        cfg.dropout = opts.dropout;
        cfg.seed = opts.seed + static_cast<std::uint64_t>(e) * 7919;
        models.emplace_back(feature_dim, cfg);
      }
    }
    std::unique_ptr<common::JsonlWriter> telemetry;
    if (!opts.telemetry_path.empty()) {
      telemetry = std::make_unique<common::JsonlWriter>(opts.telemetry_path);
    }
    if (!opts.checkpoint_dir.empty()) {
      std::filesystem::create_directories(opts.checkpoint_dir);
    }
    std::vector<gnn::TrainReport> reports(ensemble);
    {
      MUXLINK_TRACE("attack.train");
      common::parallel_for(static_cast<std::size_t>(ensemble), 1,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t e = begin; e < end; ++e) {
                               gnn::TrainOptions topts;
                               topts.epochs = train_epochs;
                               topts.batch_size = opts.batch_size;
                               topts.seed = models[e].config().seed;
                               topts.telemetry = telemetry.get();
                               topts.telemetry_tag =
                                   ensemble > 1 ? "model" + std::to_string(e) : "model";
                               topts.clip_grad = opts.clip_grad;
                               topts.max_rollbacks = opts.max_rollbacks;
                               if (!opts.checkpoint_dir.empty()) {
                                 topts.checkpoint_path =
                                     (std::filesystem::path(opts.checkpoint_dir) /
                                      ("model" + std::to_string(e) + ".ckpt"))
                                         .string();
                                 topts.checkpoint_every = opts.checkpoint_every;
                                 topts.resume = opts.resume;
                               }
                               reports[e] = gnn::train_link_predictor(models[e], train_set, topts);
                             }
                           });
    }
    result.training = reports[0];
    // Provenance each member's container carries — the same meta for the
    // registry blob and the --save-model file, and none of it run-dependent
    // (no path, thread count, time or resume epoch), so a resumed run saves
    // the bytes an uninterrupted one does.
    const auto member_meta = [&](int e) {
      common::Json meta = common::Json::object();
      if (registry) meta["key"] = member_keys[e];
      meta["circuit"] = locked.name();
      meta["scheme"] = opts.scheme.empty() ? "none" : opts.scheme;
      meta["hops"] = opts.hops;
      meta["ensemble"] = ensemble;
      meta["member"] = e;
      return meta;
    };
    if (!opts.model_out.empty()) {
      for (int e = 0; e < ensemble; ++e) {
        std::filesystem::path out(opts.model_out);
        if (ensemble > 1) {
          out.replace_filename(out.stem().string() + "." + std::to_string(e) +
                               out.extension().string());
        }
        common::atomic_write_file(out, zoo::encode_model_blob(models[e], member_meta(e), true));
      }
    }
    MUXLINK_FAULT_POINT("attack.train.done");
    result.train_seconds = seconds_since(t_train);

    // Register what this run trained: blobs carry the weights + Adam moments
    // (so the entry can seed future warm starts) in the padded SIMD layout.
    if (registry) {
      MUXLINK_TRACE("attack.zoo_insert");
      for (int e = 0; e < ensemble; ++e) {
        common::Json meta = member_meta(e);
        if (warm) meta["warm_start"] = opts.warm_start;
        registry->insert(member_keys[e], zoo::encode_model_blob(models[e], std::move(meta), true));
      }
      MUXLINK_COUNTER_ADD("serving.zoo_inserts", ensemble);
    }
    for (gnn::Dgcnn& m : models) scorers.push_back(&m);
  }  // cold/warm path
  result.sortpool_k = sortpool_k;
  result.feature_dim = feature_dim;
  MUXLINK_GAUGE_SET("attack.sortpool_k", sortpool_k);
  MUXLINK_GAUGE_SET("attack.feature_dim", feature_dim);

  // Per-link score cache: everything a score depends on is in the key
  // (member-0 registry key covers model + circuit + training config + target
  // set; the link part adds the endpoints), so hits are bit-exact replays.
  // Probes and inserts run sequentially in the caller's target order — the
  // LRU order, and therefore the persisted file, is deterministic.
  std::optional<zoo::ScoreCache> cache;
  std::filesystem::path cache_path;
  if (registry && opts.score_cache && opts.score_cache_capacity > 0) {
    cache.emplace(opts.score_cache_capacity);
    cache_path = registry->score_cache_path(member_keys[0]);
    cache->load(cache_path);  // missing/corrupt loads as empty
  }
  auto link_key = [&](GateId driver, GateId sink) {
    std::string s = member_keys[0];
    s += '|';
    s += locked.gate(driver).name;
    s += "->";
    s += locked.gate(sink).name;
    return zoo::fnv1a64(s);
  };

  // (5) Score the target links (ensemble average). Model weights are frozen
  // here, so all threads share the models read-only; cache hits skip both
  // the subgraph extraction and the forward passes.
  const auto t_score = std::chrono::steady_clock::now();
  const std::size_t n_targets = targets.size();
  result.scores.assign(n_targets, 0.0);
  std::vector<std::uint64_t> keys(n_targets, 0);
  std::vector<char> have(n_targets, 0);
  if (cache) {
    for (std::size_t i = 0; i < n_targets; ++i) {
      keys[i] = link_key(targets[i].first, targets[i].second);
      if (const auto v = cache->get(keys[i])) {
        result.scores[i] = *v;
        have[i] = 1;
      }
    }
  }
  {
    MUXLINK_TRACE("attack.score");
    // Each task scores its uncached links as one DGCNN slot per model; a
    // link's score does not depend on its slot-mates.
    constexpr std::size_t kSlot = gnn::Dgcnn::kSlotSamples;
    common::parallel_for(n_targets, kSlot, [&](std::size_t begin, std::size_t end, std::size_t) {
      gnn::GraphSample samples[kSlot];
      const gnn::GraphSample* slot[kSlot];
      std::size_t index[kSlot];
      std::size_t n = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (have[i]) continue;
        const auto sg = graph::extract_enclosing_subgraph(g, links[i], sgopts);
        samples[n] = gnn::encode_subgraph(sg, opts.hops, 0);
        slot[n] = &samples[n];
        index[n++] = i;
      }
      if (n == 0) return;
      double sum[kSlot] = {};
      double p[kSlot];
      for (const gnn::Dgcnn* model : scorers) {
        model->score({slot, n}, p);
        for (std::size_t j = 0; j < n; ++j) sum[j] += p[j];
      }
      for (std::size_t j = 0; j < n; ++j) result.scores[index[j]] = sum[j] / ensemble;
    });
  }
  if (cache) {
    for (std::size_t i = 0; i < n_targets; ++i) {
      if (!have[i]) cache->put(keys[i], result.scores[i]);
    }
    cache->save(cache_path);
    result.serving.cache_hits = cache->hits();
    result.serving.cache_misses = cache->misses();
    MUXLINK_COUNTER_ADD("serving.cache_hits", static_cast<std::int64_t>(cache->hits()));
    MUXLINK_COUNTER_ADD("serving.cache_misses", static_cast<std::int64_t>(cache->misses()));
  }
  result.score_seconds = seconds_since(t_score);
  MUXLINK_FAULT_POINT("attack.score.done");
  return result;
}

}  // namespace muxlink::core
