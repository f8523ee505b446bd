#include "support/subgraph_naive.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace muxlink::graph {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

// Bounded BFS over the global graph. Returns distance map (absent = farther
// than `limit`).
std::unordered_map<NodeId, int> bfs_global(const CircuitGraph& g, NodeId source, int limit) {
  std::unordered_map<NodeId, int> dist;
  dist.emplace(source, 0);
  std::queue<NodeId> q;
  q.push(source);
  while (!q.empty()) {
    const NodeId n = q.front();
    q.pop();
    const int d = dist[n];
    if (d == limit) continue;
    for (NodeId nb : g.neighbors(n)) {
      if (dist.emplace(nb, d + 1).second) q.push(nb);
    }
  }
  return dist;
}

// BFS inside per-node local adjacency lists starting at `source`, skipping
// `blocked`.
std::vector<int> bfs_local(const std::vector<std::vector<NodeId>>& adj, NodeId source,
                           NodeId blocked) {
  std::vector<int> dist(adj.size(), kInf);
  if (source == blocked) return dist;
  dist[source] = 0;
  std::queue<NodeId> q;
  q.push(source);
  while (!q.empty()) {
    const NodeId n = q.front();
    q.pop();
    for (NodeId nb : adj[n]) {
      if (nb == blocked || dist[nb] != kInf) continue;
      dist[nb] = dist[n] + 1;
      q.push(nb);
    }
  }
  return dist;
}

// Flattens per-node lists into the Subgraph's CSR fields.
void flatten(const std::vector<std::vector<NodeId>>& adj, Subgraph& sg) {
  sg.adj_offsets.assign(adj.size() + 1, 0);
  sg.adj_neighbors.clear();
  for (std::size_t i = 0; i < adj.size(); ++i) {
    sg.adj_neighbors.insert(sg.adj_neighbors.end(), adj[i].begin(), adj[i].end());
    sg.adj_offsets[i + 1] = static_cast<std::uint32_t>(sg.adj_neighbors.size());
  }
}

}  // namespace

Subgraph extract_node_subgraph_naive(const CircuitGraph& graph, NodeId center,
                                     const SubgraphOptions& opts) {
  if (center >= graph.num_nodes()) {
    throw std::invalid_argument("extract_node_subgraph_naive: bad center node");
  }
  const auto dist = bfs_global(graph, center, opts.hops);
  std::vector<std::pair<int, NodeId>> order;
  order.reserve(dist.size());
  for (const auto& [n, d] : dist) {
    if (n != center) order.emplace_back(d, n);
  }
  std::sort(order.begin(), order.end());
  std::vector<NodeId> members{center};
  std::size_t budget = order.size();
  if (opts.max_nodes > 1 && order.size() + 1 > opts.max_nodes) budget = opts.max_nodes - 1;
  for (std::size_t i = 0; i < budget; ++i) members.push_back(order[i].second);

  std::unordered_map<NodeId, NodeId> local;
  local.reserve(members.size());
  for (NodeId i = 0; i < members.size(); ++i) local.emplace(members[i], i);

  Subgraph sg;
  std::vector<std::vector<NodeId>> adj(members.size());
  sg.type.resize(members.size());
  sg.drnl.assign(members.size(), 0);
  sg.global = members;
  for (NodeId i = 0; i < members.size(); ++i) {
    sg.type[i] = graph.node_type(members[i]);
    sg.drnl[i] = dist.at(members[i]);
    for (NodeId nb : graph.neighbors(members[i])) {
      const auto it = local.find(nb);
      if (it != local.end()) adj[i].push_back(it->second);
    }
    std::sort(adj[i].begin(), adj[i].end());
  }
  flatten(adj, sg);
  return sg;
}

Subgraph extract_enclosing_subgraph_naive(const CircuitGraph& graph, Link target,
                                          const SubgraphOptions& opts) {
  if (target.u >= graph.num_nodes() || target.v >= graph.num_nodes() || target.u == target.v) {
    throw std::invalid_argument("extract_enclosing_subgraph_naive: bad target link");
  }
  const auto du = bfs_global(graph, target.u, opts.hops);
  const auto dv = bfs_global(graph, target.v, opts.hops);

  // Membership: union of the two h-hop balls, targets first.
  std::vector<NodeId> members{target.u, target.v};
  {
    std::vector<std::pair<int, NodeId>> rest;  // (closeness, node)
    for (const auto& [n, d] : du) {
      if (n != target.u && n != target.v) {
        const auto it = dv.find(n);
        rest.emplace_back(std::min(d, it == dv.end() ? kInf : it->second), n);
      }
    }
    for (const auto& [n, d] : dv) {
      if (n != target.u && n != target.v && !du.contains(n)) rest.emplace_back(d, n);
    }
    std::sort(rest.begin(), rest.end());
    std::size_t budget = rest.size();
    if (opts.max_nodes > 2 && rest.size() + 2 > opts.max_nodes) {
      budget = opts.max_nodes - 2;
    }
    for (std::size_t i = 0; i < budget; ++i) members.push_back(rest[i].second);
  }

  std::unordered_map<NodeId, NodeId> local;
  local.reserve(members.size());
  for (NodeId i = 0; i < members.size(); ++i) local.emplace(members[i], i);

  Subgraph sg;
  std::vector<std::vector<NodeId>> adj(members.size());
  sg.type.resize(members.size());
  sg.global = members;
  for (NodeId i = 0; i < members.size(); ++i) {
    sg.type[i] = graph.node_type(members[i]);
    for (NodeId nb : graph.neighbors(members[i])) {
      const auto it = local.find(nb);
      if (it == local.end()) continue;
      const NodeId j = it->second;
      if (opts.remove_target_edge && ((i == 0 && j == 1) || (i == 1 && j == 0))) continue;
      adj[i].push_back(j);
    }
    std::sort(adj[i].begin(), adj[i].end());
  }
  flatten(adj, sg);

  // DRNL (Eq. 3): du computed with v removed, dv with u removed.
  const auto ldu = bfs_local(adj, 0, 1);
  const auto ldv = bfs_local(adj, 1, 0);
  const int clamp = 2 * opts.hops;
  sg.drnl.assign(members.size(), 0);
  sg.drnl[0] = 1;
  sg.drnl[1] = 1;
  for (NodeId i = 2; i < members.size(); ++i) {
    const int a = ldu[i];
    const int b = ldv[i];
    if (a == kInf || b == kInf || a > clamp || b > clamp) continue;  // label 0
    sg.drnl[i] = drnl_label(a, b);
  }
  return sg;
}

}  // namespace muxlink::graph
