#include "attacks/omla.h"

#include <cmath>
#include <stdexcept>

#include "attacks/key_trace.h"
#include "gnn/trainer.h"
#include "graph/circuit_graph.h"
#include "graph/subgraph.h"

namespace muxlink::attacks {

using locking::KeyBit;
using netlist::GateId;
using netlist::GateType;
using netlist::kNullGate;
using netlist::Netlist;

struct OmlaAttack::Impl {
  OmlaOptions opts;
  std::vector<gnn::GraphSample> samples;
  std::unique_ptr<gnn::Dgcnn> model;
  std::vector<int> sizes;

  // Feature layout: one-hot over all gate types | one-hot hop distance
  // 0..hops | is-center flag.
  int feature_dim() const { return netlist::kNumGateTypes + opts.hops + 1 + 1; }

  gnn::GraphSample encode(const graph::Subgraph& sg, int label) const {
    const int n = static_cast<int>(sg.num_nodes());
    gnn::GraphSample g;
    g.label = label;
    g.nbr_offsets.assign(sg.adj_offsets.begin(), sg.adj_offsets.end());
    g.nbr.assign(sg.adj_neighbors.begin(), sg.adj_neighbors.end());
    g.inv_deg.resize(n);
    for (int i = 0; i < n; ++i) {
      g.inv_deg[i] = 1.0 / (1.0 + static_cast<double>(sg.degree(i)));
    }
    // Ascending per node: gate type, hop distance, then the center flag.
    g.feat.reserve(2 * static_cast<std::size_t>(n) + 1);
    for (int i = 0; i < n; ++i) {
      int d = sg.drnl[i];
      if (d < 0 || d > opts.hops) d = opts.hops;
      g.feat.push_back(static_cast<int>(sg.type[i]));
      g.feat.push_back(netlist::kNumGateTypes + d);
      if (i == 0) g.feat.push_back(feature_dim() - 1);
      g.feat_offsets.push_back(static_cast<int>(g.feat.size()));
    }
    return g;
  }

  // One subgraph per key bit of the (bare) locked netlist.
  std::vector<gnn::GraphSample> subgraphs_of(const Netlist& locked) const {
    const auto keys = find_key_inputs(locked);
    // Key gates become graph nodes (MUXes included), key inputs do not.
    const graph::CircuitGraph g = graph::build_circuit_graph(locked);
    graph::SubgraphOptions sgopts;
    sgopts.hops = opts.hops;
    sgopts.max_nodes = opts.max_subgraph_nodes;
    std::vector<gnn::GraphSample> result;
    for (const KeyInput& k : keys) {
      if (locked.fanouts(k.gate).empty()) {
        throw netlist::NetlistError("key input '" + k.name + "' drives nothing");
      }
      const GateId key_gate = locked.fanouts(k.gate).front().sink;
      const auto node = g.node_of(key_gate);
      if (node == graph::kNoNode) {
        throw netlist::NetlistError("key gate of '" + k.name + "' missing from graph");
      }
      result.push_back(
          encode(graph::extract_node_subgraph(g, static_cast<graph::NodeId>(node), sgopts), 0));
    }
    return result;
  }
};

OmlaAttack::OmlaAttack(const OmlaOptions& opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = opts;
}
OmlaAttack::~OmlaAttack() = default;
OmlaAttack::OmlaAttack(OmlaAttack&&) noexcept = default;
OmlaAttack& OmlaAttack::operator=(OmlaAttack&&) noexcept = default;

bool OmlaAttack::trained() const noexcept { return impl_->model != nullptr; }
std::size_t OmlaAttack::num_samples() const noexcept { return impl_->samples.size(); }

void OmlaAttack::add_training_design(const locking::LockedDesign& design) {
  auto graphs = impl_->subgraphs_of(design.netlist);
  if (graphs.size() != design.key_size()) {
    throw std::invalid_argument("OmlaAttack: key size mismatch");
  }
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    graphs[i].label = design.key[i] != 0 ? 1 : 0;
    impl_->sizes.push_back(graphs[i].num_nodes());
    impl_->samples.push_back(std::move(graphs[i]));
  }
  impl_->model.reset();
}

gnn::TrainReport OmlaAttack::train() {
  if (impl_->samples.empty()) throw std::logic_error("OmlaAttack::train: no samples");
  gnn::DgcnnConfig cfg;
  cfg.sortpool_k = gnn::choose_sortpool_k(impl_->sizes);
  cfg.learning_rate = impl_->opts.learning_rate;
  cfg.dropout = impl_->opts.dropout;
  cfg.seed = impl_->opts.seed;
  impl_->model = std::make_unique<gnn::Dgcnn>(impl_->feature_dim(), cfg);
  gnn::TrainOptions topts;
  topts.epochs = impl_->opts.epochs;
  topts.batch_size = impl_->opts.batch_size;
  topts.seed = impl_->opts.seed;
  return gnn::train_link_predictor(*impl_->model, impl_->samples, topts);
}

std::vector<KeyBit> OmlaAttack::attack(const Netlist& locked) const {
  if (!impl_->model) throw std::logic_error("OmlaAttack: call train() first");
  std::vector<KeyBit> key;
  for (const auto& g : impl_->subgraphs_of(locked)) {
    const double p1 = impl_->model->predict(g);
    if (std::abs(p1 - 0.5) < impl_->opts.margin) {
      key.push_back(KeyBit::kUnknown);
    } else {
      key.push_back(p1 >= 0.5 ? KeyBit::kOne : KeyBit::kZero);
    }
  }
  return key;
}

}  // namespace muxlink::attacks
