// Tests for the graph substrate: netlist -> undirected gate graph, h-hop
// enclosing subgraphs, DRNL labeling, and balanced link sampling.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "attacks/key_trace.h"
#include "circuitgen/generator.h"
#include "graph/circuit_graph.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "locking/mux_lock.h"
#include "netlist/bench_io.h"

namespace muxlink::graph {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::parse_bench;

constexpr const char* kChain = R"(
INPUT(a)
INPUT(b)
OUTPUT(g4)
g1 = AND(a, b)
g2 = NOT(g1)
g3 = OR(g2, g1)
g4 = XOR(g3, g2)
)";

// --- graph construction ---------------------------------------------------------

TEST(CircuitGraph, ExcludesPrimaryInputs) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  EXPECT_EQ(g.num_nodes(), 4u);  // g1..g4
  EXPECT_EQ(g.node_of(nl.find("a")), kNoNode);
  EXPECT_NE(g.node_of(nl.find("g1")), kNoNode);
}

TEST(CircuitGraph, EdgesFollowWires) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto n1 = static_cast<NodeId>(g.node_of(nl.find("g1")));
  const auto n2 = static_cast<NodeId>(g.node_of(nl.find("g2")));
  const auto n3 = static_cast<NodeId>(g.node_of(nl.find("g3")));
  const auto n4 = static_cast<NodeId>(g.node_of(nl.find("g4")));
  EXPECT_TRUE(g.has_edge(n1, n2));
  EXPECT_TRUE(g.has_edge(n1, n3));
  EXPECT_TRUE(g.has_edge(n2, n3));
  EXPECT_TRUE(g.has_edge(n3, n4));
  EXPECT_TRUE(g.has_edge(n2, n4));
  EXPECT_FALSE(g.has_edge(n1, n4));
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(CircuitGraph, UndirectedAndDeduplicated) {
  // A gate feeding two ports of the same sink yields one edge.
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(y)
x = NOT(a)
y = AND(x, x)
)");
  const CircuitGraph g = build_circuit_graph(nl);
  EXPECT_EQ(g.num_edges(), 1u);
  const auto nx = static_cast<NodeId>(g.node_of(nl.find("x")));
  const auto ny = static_cast<NodeId>(g.node_of(nl.find("y")));
  EXPECT_TRUE(g.has_edge(nx, ny));
  EXPECT_TRUE(g.has_edge(ny, nx));
}

TEST(CircuitGraph, ExclusionRemovesNodeAndItsEdges) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl, std::vector{nl.find("g3")});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.node_of(nl.find("g3")), kNoNode);
  // g3's edges are gone; g2-g4 edge remains.
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(CircuitGraph, KeyMuxRemovalMatchesAttackModel) {
  circuitgen::CircuitSpec spec;
  spec.seed = 3;
  spec.num_gates = 200;
  const Netlist nl = circuitgen::generate(spec);
  locking::MuxLockOptions opts;
  opts.key_bits = 16;
  const auto d = locking::lock_dmux(nl, opts);
  const auto muxes = attacks::trace_key_muxes(d.netlist);
  std::vector<netlist::GateId> excluded;
  for (const auto& m : muxes) excluded.push_back(m.mux);
  const CircuitGraph g = build_circuit_graph(d.netlist, excluded);
  for (const auto& m : muxes) {
    EXPECT_EQ(g.node_of(m.mux), kNoNode);
    // Data inputs and sink survive as nodes, and the unresolved wire is NOT
    // an edge (it is a target link).
    ASSERT_NE(g.node_of(m.input_a), kNoNode);
    ASSERT_NE(g.node_of(m.input_b), kNoNode);
    ASSERT_NE(g.node_of(m.sink), kNoNode);
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_NE(g.node_type(n), GateType::kMux);
    EXPECT_NE(g.node_type(n), GateType::kInput);
  }
}

// The one-pass CSR builder against the definition: on random netlists with
// duplicate fanins, self-feeding gates and random exclusions, every node's
// neighbour slice equals a std::set adjacency built wire by wire.
TEST(CircuitGraph, CsrBuilderMatchesSetAdjacencyOnRandomCircuits) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    Netlist nl("rand");
    const int inputs = 2 + static_cast<int>(rng() % 4);
    for (int i = 0; i < inputs; ++i) nl.add_input("i" + std::to_string(i));
    const int gates = 1 + static_cast<int>(rng() % 60);
    for (int i = 0; i < gates; ++i) {
      std::vector<netlist::GateId> fanins(1 + rng() % 4);
      for (auto& f : fanins) f = static_cast<netlist::GateId>(rng() % nl.num_gates());
      if (fanins.size() > 1 && rng() % 3 == 0) fanins[1] = fanins[0];  // duplicate wire
      const GateType type = fanins.size() == 1 ? GateType::kNot
                            : fanins.size() == 3 && rng() % 2 == 0 ? GateType::kMux
                                                                   : GateType::kAnd;
      const auto g = nl.add_gate("g" + std::to_string(i), type, fanins);
      if (rng() % 10 == 0) nl.replace_fanin(g, 0, g);  // a gate feeding itself
    }
    std::vector<netlist::GateId> excluded;
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      if (rng() % 5 == 0) excluded.push_back(g);
    }

    const CircuitGraph graph = build_circuit_graph(nl, excluded);
    const std::set<netlist::GateId> skip(excluded.begin(), excluded.end());
    std::map<netlist::GateId, NodeId> node;
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      if (!skip.contains(g) && nl.gate(g).type != GateType::kInput) {
        const auto n = static_cast<NodeId>(node.size());
        node[g] = n;
      }
    }
    std::vector<std::set<NodeId>> adj(node.size());
    for (const auto& [g, v] : node) {
      for (netlist::GateId f : nl.gate(g).fanins) {
        const auto it = node.find(f);
        if (it == node.end() || it->second == v) continue;
        adj[v].insert(it->second);
        adj[it->second].insert(v);
      }
    }

    ASSERT_EQ(graph.num_nodes(), node.size());
    std::size_t degree_sum = 0;
    for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
      const auto it = node.find(g);
      ASSERT_EQ(graph.node_of(g), it == node.end() ? kNoNode : static_cast<int>(it->second));
    }
    for (const auto& [g, v] : node) {
      ASSERT_EQ(graph.gate_of(v), g);
      ASSERT_EQ(graph.node_type(v), nl.gate(g).type);
      const auto nb = graph.neighbors(v);
      ASSERT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
                std::vector<NodeId>(adj[v].begin(), adj[v].end()));
      degree_sum += adj[v].size();
    }
    EXPECT_EQ(graph.num_edges(), degree_sum / 2);
  }
}

TEST(CircuitGraph, TypeFeatureIndexCoversLogicTypes) {
  std::set<int> seen;
  for (GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr, GateType::kNor,
                     GateType::kXor, GateType::kXnor, GateType::kNot, GateType::kBuf}) {
    const int idx = type_feature_index(t);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, kNumTypeFeatures);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 8u);  // distinct one-hot slots
  EXPECT_EQ(type_feature_index(GateType::kConst0), type_feature_index(GateType::kBuf));
  EXPECT_THROW(type_feature_index(GateType::kInput), std::invalid_argument);
  EXPECT_THROW(type_feature_index(GateType::kMux), std::invalid_argument);
}

// --- subgraph extraction -----------------------------------------------------------

TEST(Subgraph, OneHopContainsExactlyTheNeighborhood) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto n1 = static_cast<NodeId>(g.node_of(nl.find("g1")));
  const auto n2 = static_cast<NodeId>(g.node_of(nl.find("g2")));
  SubgraphOptions opts;
  opts.hops = 1;
  const Subgraph sg = extract_enclosing_subgraph(g, {n1, n2}, opts);
  // 1-hop around {g1,g2}: g1,g2 plus g3 (adj to both) and g4 (adj to g2).
  EXPECT_EQ(sg.num_nodes(), 4u);
  EXPECT_EQ(sg.global[0], n1);
  EXPECT_EQ(sg.global[1], n2);
}

TEST(Subgraph, TargetEdgeIsRemoved) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto n1 = static_cast<NodeId>(g.node_of(nl.find("g1")));
  const auto n2 = static_cast<NodeId>(g.node_of(nl.find("g2")));
  const Subgraph sg = extract_enclosing_subgraph(g, {n1, n2});
  // Local nodes 0 and 1 must not be adjacent even though g1-g2 is a wire.
  EXPECT_FALSE(std::binary_search(sg.adj(0).begin(), sg.adj(0).end(), NodeId{1}));
  SubgraphOptions keep;
  keep.remove_target_edge = false;
  const Subgraph sg2 = extract_enclosing_subgraph(g, {n1, n2}, keep);
  EXPECT_TRUE(std::binary_search(sg2.adj(0).begin(), sg2.adj(0).end(), NodeId{1}));
}

TEST(Subgraph, DrnlTargetsGetLabelOne) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto n1 = static_cast<NodeId>(g.node_of(nl.find("g1")));
  const auto n3 = static_cast<NodeId>(g.node_of(nl.find("g3")));
  const Subgraph sg = extract_enclosing_subgraph(g, {n1, n3});
  EXPECT_EQ(sg.drnl[0], 1);
  EXPECT_EQ(sg.drnl[1], 1);
}

TEST(Subgraph, DrnlMatchesFormulaOnPath) {
  // Path graph a-b-c-d-e; target link (a, e) (non-edge).
  Netlist nl;
  const auto a = nl.add_input("pi");
  auto prev = nl.add_gate("a", GateType::kBuf, {a});
  for (const char* name : {"b", "c", "d", "e"}) {
    prev = nl.add_gate(name, GateType::kNot, {prev});
  }
  nl.mark_output(prev);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto na = static_cast<NodeId>(g.node_of(nl.find("a")));
  const auto ne = static_cast<NodeId>(g.node_of(nl.find("e")));
  SubgraphOptions opts;
  opts.hops = 4;
  const Subgraph sg = extract_enclosing_subgraph(g, {na, ne}, opts);
  ASSERT_EQ(sg.num_nodes(), 5u);
  // b: du=1, dv=3 -> d=4, f = 1 + 1 + 2*(2+0-1) = 4.
  // c: du=2, dv=2 -> d=4, f = 1 + 2 + 2*1 = 5.
  const auto nb = static_cast<NodeId>(g.node_of(nl.find("b")));
  const auto nc = static_cast<NodeId>(g.node_of(nl.find("c")));
  const auto nd = static_cast<NodeId>(g.node_of(nl.find("d")));
  for (NodeId i = 0; i < sg.num_nodes(); ++i) {
    if (sg.global[i] == nb) EXPECT_EQ(sg.drnl[i], 4);
    if (sg.global[i] == nc) EXPECT_EQ(sg.drnl[i], 5);
    if (sg.global[i] == nd) EXPECT_EQ(sg.drnl[i], 4);
  }
}

TEST(Subgraph, DrnlZeroWhenOnlyOneSideReachable) {
  // Star: u has a private neighbor p that cannot reach v once u is removed.
  const Netlist nl = parse_bench(R"(
INPUT(x)
OUTPUT(p)
OUTPUT(v)
u = NOT(x)
p = BUF(u)
m = NOT(u)
v = BUF(m)
)");
  const CircuitGraph g = build_circuit_graph(nl);
  const auto nu = static_cast<NodeId>(g.node_of(nl.find("u")));
  const auto nv = static_cast<NodeId>(g.node_of(nl.find("v")));
  const Subgraph sg = extract_enclosing_subgraph(g, {nu, nv});
  const auto np = static_cast<NodeId>(g.node_of(nl.find("p")));
  bool checked = false;
  for (NodeId i = 0; i < sg.num_nodes(); ++i) {
    if (sg.global[i] == np) {
      EXPECT_EQ(sg.drnl[i], 0);  // p's only route to v runs through u
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Subgraph, HopsControlSize) {
  circuitgen::CircuitSpec spec;
  spec.seed = 9;
  spec.num_gates = 400;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto edges = g.all_edges();
  ASSERT_FALSE(edges.empty());
  const Link link = edges[edges.size() / 2];
  std::size_t prev = 0;
  for (int h = 1; h <= 4; ++h) {
    SubgraphOptions opts;
    opts.hops = h;
    const Subgraph sg = extract_enclosing_subgraph(g, link, opts);
    EXPECT_GE(sg.num_nodes(), prev);
    prev = sg.num_nodes();
  }
  EXPECT_GT(prev, 4u);
}

TEST(Subgraph, MaxNodesTruncatesButKeepsTargets) {
  circuitgen::CircuitSpec spec;
  spec.seed = 10;
  spec.num_gates = 400;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const Link link = g.all_edges().front();
  SubgraphOptions opts;
  opts.hops = 3;
  opts.max_nodes = 12;
  const Subgraph sg = extract_enclosing_subgraph(g, link, opts);
  EXPECT_LE(sg.num_nodes(), 12u);
  EXPECT_EQ(sg.global[0], link.u);
  EXPECT_EQ(sg.global[1], link.v);
}

TEST(Subgraph, RejectsDegenerateTargets) {
  const Netlist nl = parse_bench(kChain);
  const CircuitGraph g = build_circuit_graph(nl);
  EXPECT_THROW(extract_enclosing_subgraph(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW(extract_enclosing_subgraph(g, {0, 99}), std::invalid_argument);
}

TEST(Subgraph, MaxDrnlLabelBoundsObservedLabels) {
  circuitgen::CircuitSpec spec;
  spec.seed = 12;
  spec.num_gates = 300;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto edges = g.all_edges();
  for (int h : {1, 2, 3}) {
    SubgraphOptions opts;
    opts.hops = h;
    for (std::size_t i = 0; i < edges.size(); i += 7) {
      const Subgraph sg = extract_enclosing_subgraph(g, edges[i], opts);
      for (int lbl : sg.drnl) {
        EXPECT_GE(lbl, 0);
        EXPECT_LE(lbl, max_drnl_label(h));
      }
    }
  }
}

TEST(Subgraph, LocalAdjacencyIsSymmetric) {
  circuitgen::CircuitSpec spec;
  spec.seed = 14;
  spec.num_gates = 250;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const Subgraph sg = extract_enclosing_subgraph(g, g.all_edges()[3]);
  for (NodeId i = 0; i < sg.num_nodes(); ++i) {
    for (NodeId j : sg.adj(i)) {
      EXPECT_TRUE(std::binary_search(sg.adj(j).begin(), sg.adj(j).end(), i));
    }
  }
}

// --- sampling -----------------------------------------------------------------------

TEST(Sampling, BalancedAndShuffled) {
  circuitgen::CircuitSpec spec;
  spec.seed = 21;
  spec.num_gates = 300;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  SamplingOptions opts;
  opts.max_links = 200;
  const auto samples = sample_links(g, {}, opts);
  EXPECT_EQ(samples.size(), 200u);
  std::size_t pos = 0;
  for (const auto& s : samples) pos += s.positive ? 1 : 0;
  EXPECT_EQ(pos, 100u);
  // Positives are edges; negatives are not.
  for (const auto& s : samples) {
    EXPECT_EQ(g.has_edge(s.link.u, s.link.v), s.positive);
  }
}

TEST(Sampling, ExcludesTargetLinks) {
  circuitgen::CircuitSpec spec;
  spec.seed = 23;
  spec.num_gates = 300;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto edges = g.all_edges();
  std::vector<Link> excluded{edges[0], edges[1], {edges[2].v, edges[2].u}};
  const auto samples = sample_links(g, excluded, {});
  for (const auto& s : samples) {
    for (const Link& x : excluded) {
      const bool same = (s.link.u == x.u && s.link.v == x.v) ||
                        (s.link.u == x.v && s.link.v == x.u);
      EXPECT_FALSE(same);
    }
  }
}

TEST(Sampling, DeterministicPerSeed) {
  circuitgen::CircuitSpec spec;
  spec.seed = 27;
  spec.num_gates = 200;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  SamplingOptions opts;
  opts.seed = 5;
  const auto a = sample_links(g, {}, opts);
  const auto b = sample_links(g, {}, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].link, b[i].link);
    EXPECT_EQ(a[i].positive, b[i].positive);
  }
}

TEST(Sampling, CapsAtMaxLinks) {
  circuitgen::CircuitSpec spec;
  spec.seed = 29;
  spec.num_gates = 500;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  SamplingOptions opts;
  opts.max_links = 64;
  EXPECT_EQ(sample_links(g, {}, opts).size(), 64u);
}

TEST(Sampling, NoDuplicateNegatives) {
  circuitgen::CircuitSpec spec;
  spec.seed = 31;
  spec.num_gates = 150;
  const Netlist nl = circuitgen::generate(spec);
  const CircuitGraph g = build_circuit_graph(nl);
  const auto samples = sample_links(g, {}, {});
  std::set<std::pair<NodeId, NodeId>> neg;
  for (const auto& s : samples) {
    if (s.positive) continue;
    const auto key = std::minmax(s.link.u, s.link.v);
    EXPECT_TRUE(neg.emplace(key.first, key.second).second);
  }
}

TEST(Sampling, RejectsTinyGraphs) {
  Netlist nl;
  const auto a = nl.add_input("a");
  nl.add_gate("g", GateType::kNot, {a});
  const CircuitGraph g = build_circuit_graph(nl);
  EXPECT_THROW(sample_links(g, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace muxlink::graph
