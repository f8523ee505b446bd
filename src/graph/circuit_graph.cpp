#include "graph/circuit_graph.h"

#include <algorithm>
#include <stdexcept>

#include "common/metrics.h"

namespace muxlink::graph {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

bool CircuitGraph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Link> CircuitGraph::all_edges() const {
  std::vector<Link> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

CircuitGraph build_circuit_graph(const Netlist& nl, std::span<const GateId> excluded) {
  MUXLINK_TRACE("graph.build");
  const std::size_t n_gates = nl.num_gates();
  CircuitGraph graph;
  graph.node_of_.assign(n_gates, 0);
  for (GateId g : excluded) graph.node_of_.at(g) = kNoNode;
  graph.type_.reserve(n_gates);
  graph.gate_of_.reserve(n_gates);
  for (GateId g = 0; g < n_gates; ++g) {
    const GateType type = nl.gate(g).type;
    if (graph.node_of_[g] == kNoNode || type == GateType::kInput) {
      graph.node_of_[g] = kNoNode;
      continue;
    }
    graph.node_of_[g] = static_cast<std::int32_t>(graph.type_.size());
    graph.type_.push_back(type);
    graph.gate_of_.push_back(g);
  }

  // Every wire between two nodes is an undirected edge; a gate feeding
  // itself twice carries no information. The visit below runs twice: to
  // count each node's degree, then to fill the slices.
  const std::size_t n = graph.num_nodes();
  auto& offsets = graph.offsets_;
  auto& nb = graph.neighbors_;
  const auto for_each_wire = [&](auto&& visit) {
    for (NodeId v = 0; v < n; ++v) {
      for (GateId f : nl.gate(graph.gate_of_[v]).fanins) {
        const std::int32_t u = graph.node_of_[f];
        if (u != kNoNode && static_cast<NodeId>(u) != v) visit(static_cast<NodeId>(u), v);
      }
    }
  };
  offsets.assign(n + 1, 0);
  for_each_wire([&](NodeId u, NodeId v) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  });
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  nb.resize(offsets[n]);
  // offsets[v] walks through v's slice and ends at the next slice's start.
  for_each_wire([&](NodeId u, NodeId v) {
    nb[offsets[u]++] = v;
    nb[offsets[v]++] = u;
  });
  // Sort and dedupe each slice, compacting the array in place; `begin` is
  // the slice's unshifted start.
  std::uint32_t out = 0;
  std::uint32_t begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t end = offsets[v];
    std::sort(nb.begin() + begin, nb.begin() + end);
    const auto last = std::unique(nb.begin() + begin, nb.begin() + end);
    offsets[v] = out;
    out = static_cast<std::uint32_t>(std::copy(nb.begin() + begin, last, nb.begin() + out) -
                                     nb.begin());
    begin = end;
  }
  offsets[n] = out;
  nb.resize(out);
  graph.num_edges_ = out / 2;
  MUXLINK_GAUGE_SET("graph.nodes", static_cast<double>(graph.num_nodes()));
  MUXLINK_GAUGE_SET("graph.edges", static_cast<double>(graph.num_edges()));
  return graph;
}

int type_feature_index(GateType t) {
  switch (t) {
    case GateType::kAnd:
      return 0;
    case GateType::kNand:
      return 1;
    case GateType::kOr:
      return 2;
    case GateType::kNor:
      return 3;
    case GateType::kXor:
      return 4;
    case GateType::kXnor:
      return 5;
    case GateType::kNot:
      return 6;
    case GateType::kBuf:
    case GateType::kConst0:
    case GateType::kConst1:
      return 7;
    default:
      throw std::invalid_argument("type_feature_index: gate type not representable");
  }
}

}  // namespace muxlink::graph
