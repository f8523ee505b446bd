#include "decompose.h"

#include <optional>
#include <stdexcept>

#include "attacks/key_trace.h"
#include "common/thread_pool.h"
#include "gnn/encoding.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "netlist/bench_io.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"
#include "zoo/score_cache.h"

namespace perfbench {

using namespace muxlink;

core::MuxLinkOptions options_for(const core::AttackJobSpec& spec) {
  core::MuxLinkOptions opts;
  opts.hops = spec.hops;
  opts.threshold = spec.threshold;
  opts.epochs = spec.epochs;
  opts.learning_rate = spec.learning_rate;
  opts.max_train_links = spec.max_train_links;
  opts.seed = spec.seed;
  opts.scheme = spec.scheme;
  opts.use_zoo = spec.use_zoo;
  opts.zoo_dir = spec.zoo_dir;
  opts.score_cache = spec.score_cache;
  return opts;
}

namespace {

Targets targets_of(const std::vector<attacks::TracedMux>& muxes) {
  Targets t;
  for (const attacks::TracedMux& m : muxes) {
    t.excluded.push_back(m.mux);
    t.wires.emplace_back(m.input_a, m.sink);
    t.wires.emplace_back(m.input_b, m.sink);
  }
  if (t.wires.empty()) throw std::runtime_error("no key-controlled MUXes found");
  return t;
}

}  // namespace

Targets trace_targets(const netlist::Netlist& locked) {
  return targets_of(attacks::trace_key_muxes(locked));
}

Trained train_like_engine(const core::MuxLinkOptions& opts, int sortpool_k,
                          const std::vector<gnn::GraphSample>& train_set) {
  gnn::DgcnnConfig cfg;
  cfg.sortpool_k = sortpool_k;
  cfg.learning_rate = opts.learning_rate;
  cfg.dropout = opts.dropout;
  cfg.seed = opts.seed;
  Trained t{gnn::Dgcnn(gnn::feature_dim_for_hops(opts.hops), cfg), {}};
  gnn::TrainOptions topts;
  topts.epochs = opts.epochs;
  topts.batch_size = opts.batch_size;
  topts.seed = cfg.seed;
  topts.telemetry_tag = "model";
  topts.clip_grad = opts.clip_grad;
  topts.max_rollbacks = opts.max_rollbacks;
  t.report = gnn::train_link_predictor(t.model, train_set, topts);
  return t;
}

Decomposed run_decomposed(const core::AttackJobSpec& spec, const std::string& zoo_key, bool cold,
                          Tracer& tracer, std::int64_t parent, std::int64_t job) {
  const core::MuxLinkOptions opts = options_for(spec);
  const netlist::Netlist locked = [&] {
    Span s(tracer, "netlist.parse", parent, job);
    return netlist::parse_bench(spec.bench, spec.circuit.empty() ? "job" : spec.circuit);
  }();
  const Targets targets = [&] {
    Span s(tracer, "attacks.key_trace", parent, job);
    attacks::find_key_inputs(locked);
    const auto muxes = attacks::trace_key_muxes(locked);
    attacks::group_localities(locked, muxes);
    return targets_of(muxes);
  }();

  std::vector<graph::Link> links;
  const graph::CircuitGraph g = [&] {
    Span s(tracer, "graph.build", parent, job);
    graph::CircuitGraph built = graph::build_circuit_graph(locked, targets.excluded);
    for (const auto& [driver, sink] : targets.wires) {
      const auto u = built.node_of(driver);
      const auto v = built.node_of(sink);
      if (u == graph::kNoNode || v == graph::kNoNode) {
        throw std::runtime_error("target endpoints missing from the gate graph");
      }
      links.push_back({static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v)});
    }
    return built;
  }();

  const int feature_dim = gnn::feature_dim_for_hops(opts.hops);
  graph::SubgraphOptions sgopts;
  sgopts.hops = opts.hops;
  sgopts.max_nodes = opts.max_subgraph_nodes;

  Decomposed out;
  std::optional<zoo::Registry> registry;
  std::optional<zoo::LoadedModel> served;
  std::optional<gnn::Dgcnn> trained;
  if (opts.use_zoo) {
    {
      // The engine hashes the locked netlist's BENCH text into the registry
      // key on every zoo job.
      Span s(tracer, "netlist.write", parent, job);
      zoo::fnv1a64(netlist::write_bench(locked));
    }
    Span s(tracer, "zoo.probe", parent, job);
    registry.emplace(zoo::Registry::resolve_dir(opts.zoo_dir));
    if (const auto path = registry->find(zoo_key)) {
      served.emplace(zoo::load_model_blob(*path));
      if (served->model.feature_dim() != feature_dim) {
        throw std::runtime_error("zoo entry has the wrong feature dimension");
      }
    }
  }
  if (served && cold) throw std::runtime_error("cold job found its model in the zoo");
  if (!served && !cold) throw std::runtime_error("warm job missed the zoo");

  if (cold) {
    std::vector<int> sizes;
    {
      Span s(tracer, "graph.train_extract", parent, job);
      graph::SamplingOptions sopts;
      sopts.max_links = opts.max_train_links;
      sopts.seed = opts.seed;
      const auto samples = graph::sample_links(g, links, sopts);
      if (samples.empty()) throw std::runtime_error("no training links available");
      out.train_set.resize(samples.size());
      sizes.resize(samples.size());
      common::parallel_for(samples.size(), 8, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto sg = graph::extract_enclosing_subgraph(g, samples[i].link, sgopts);
          sizes[i] = static_cast<int>(sg.num_nodes());
          out.train_set[i] = gnn::encode_subgraph(sg, opts.hops, samples[i].positive ? 1 : 0);
        }
      });
    }
    {
      Span s(tracer, "gnn.train", parent, job);
      out.sortpool_k = opts.sortpool_k > 0 ? opts.sortpool_k : gnn::choose_sortpool_k(sizes);
      Trained t = train_like_engine(opts, out.sortpool_k, out.train_set);
      out.training = t.report;
      trained.emplace(std::move(t.model));
    }
    if (registry) {
      Span s(tracer, "zoo.insert", parent, job);
      common::Json meta = common::Json::object();
      meta["key"] = zoo_key;
      meta["circuit"] = locked.name();
      meta["scheme"] = opts.scheme.empty() ? "none" : opts.scheme;
      meta["hops"] = opts.hops;
      meta["ensemble"] = 1;
      meta["member"] = 0;
      registry->insert(zoo_key, zoo::encode_model_blob(*trained, std::move(meta), true));
    }
  }
  gnn::Dgcnn& scorer = cold ? *trained : served->model;

  // Per-link score cache, keyed and ordered as the engine keys it.
  const std::size_t n = targets.wires.size();
  out.scores.assign(n, 0.0);
  std::vector<char> have(n, 0);
  std::optional<zoo::ScoreCache> cache;
  std::vector<std::uint64_t> keys(n, 0);
  if (registry && opts.score_cache && opts.score_cache_capacity > 0) {
    Span s(tracer, "zoo.score_cache", parent, job);
    cache.emplace(opts.score_cache_capacity);
    cache->load(registry->score_cache_path(zoo_key));
    for (std::size_t i = 0; i < n; ++i) {
      const std::string k = zoo_key + "|" + locked.gate(targets.wires[i].first).name + "->" +
                            locked.gate(targets.wires[i].second).name;
      keys[i] = zoo::fnv1a64(k);
      if (const auto v = cache->get(keys[i])) {
        out.scores[i] = *v;
        have[i] = 1;
      }
    }
  }
  {
    Span score(tracer, "muxlink.score", parent, job);
    const std::int64_t score_id = score.id();
    common::parallel_for(n, 2, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        if (have[i]) continue;
        const gnn::GraphSample gs = [&] {
          Span s(tracer, "graph.extract", score_id, job);
          const auto sg = graph::extract_enclosing_subgraph(g, links[i], sgopts);
          return gnn::encode_subgraph(sg, opts.hops, 0);
        }();
        Span s(tracer, "gnn.predict", score_id, job);
        out.scores[i] = scorer.predict(gs);
      }
    });
  }
  if (cache) {
    Span s(tracer, "zoo.score_cache", parent, job);
    for (std::size_t i = 0; i < n; ++i) {
      if (!have[i]) cache->put(keys[i], out.scores[i]);
    }
    cache->save(registry->score_cache_path(zoo_key));
  }
  return out;
}

}  // namespace perfbench
