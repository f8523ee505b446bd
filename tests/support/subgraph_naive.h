// Naive reference extractor, kept as a correctness oracle and benchmark
// baseline for the arena-based fast path in graph/subgraph.cpp.
//
// This is the original hash-map implementation: every call allocates fresh
// unordered_map distance/remap tables and BFS queues. It is deliberately
// kept simple and obviously correct; randomized tests assert the fast path
// produces node-for-node, edge-for-edge, label-for-label identical
// subgraphs, and tools/bench_kernels reports the fast path's speedup over
// it. Do not optimize this file.
#pragma once

#include "graph/subgraph.h"

namespace muxlink::graph {

Subgraph extract_enclosing_subgraph_naive(const CircuitGraph& graph, Link target,
                                          const SubgraphOptions& opts = {});

Subgraph extract_node_subgraph_naive(const CircuitGraph& graph, NodeId center,
                                     const SubgraphOptions& opts = {});

}  // namespace muxlink::graph
