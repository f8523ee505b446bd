// Undirected gate-connectivity graph (paper §III-A).
//
// Nodes are logic gates; primary inputs/outputs are not nodes ("we are
// interested in capturing the composition of gates and their connectivity"),
// and key MUXes are removed before graph construction — their data inputs
// become the target links of the link-prediction task.
//
// Adjacency is stored in CSR form (a flat `offsets` array of size n+1 into a
// flat `neighbors` array) so that the thousands of BFS traversals issued by
// enclosing-subgraph extraction walk contiguous cache lines instead of
// chasing one heap allocation per node. The builder fills the CSR in one
// pass (count degrees, prefix-sum, fill), then sorts and dedupes each
// node's slice in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace muxlink::graph {

using NodeId = std::uint32_t;
inline constexpr std::int32_t kNoNode = -1;

struct Link {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Link&, const Link&) = default;
};

class CircuitGraph {
 public:
  std::size_t num_nodes() const noexcept { return type_.size(); }
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::span<const NodeId> neighbors(NodeId n) const {
    const std::size_t e = offsets_.at(n + 1);  // throws for out-of-range nodes
    const std::size_t b = offsets_[n];
    return {neighbors_.data() + b, e - b};
  }
  std::size_t degree(NodeId n) const { return offsets_.at(n + 1) - offsets_[n]; }
  bool has_edge(NodeId u, NodeId v) const;
  netlist::GateType node_type(NodeId n) const { return type_.at(n); }
  netlist::GateId gate_of(NodeId n) const { return gate_of_.at(n); }
  // kNoNode when the gate is excluded (PI, key MUX, ...).
  std::int32_t node_of(netlist::GateId g) const { return node_of_.at(g); }

  // Every edge once, with u < v.
  std::vector<Link> all_edges() const;

  friend CircuitGraph build_circuit_graph(const netlist::Netlist& nl,
                                          std::span<const netlist::GateId> excluded);

 private:
  // CSR adjacency.
  std::vector<std::uint32_t> offsets_;  // size num_nodes()+1
  std::vector<NodeId> neighbors_;       // per-node slices sorted ascending
  std::vector<netlist::GateType> type_;
  std::vector<netlist::GateId> gate_of_;
  std::vector<std::int32_t> node_of_;
  std::size_t num_edges_ = 0;
};

// Builds the graph from a netlist, excluding PIs (hence all key inputs),
// and the gates listed in `excluded` (the traced key MUXes). Wires to/from
// excluded gates produce no edges.
CircuitGraph build_circuit_graph(const netlist::Netlist& nl,
                                 std::span<const netlist::GateId> excluded = {});

// Feature index (0..7) of a gate's Boolean function for the 8-bit one-hot
// node encoding: {AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF}; constants map to
// BUF. PIs/MUXes never appear in the graph.
inline constexpr int kNumTypeFeatures = 8;
int type_feature_index(netlist::GateType t);

}  // namespace muxlink::graph
