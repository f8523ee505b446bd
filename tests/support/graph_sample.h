// Builds a GraphSample by hand, for tests. The hot path (gnn/encoding.cpp)
// copies a Subgraph's CSR arrays directly instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gnn/dgcnn.h"

namespace muxlink::gnn {

// Sets nbr_offsets/nbr/inv_deg from per-node neighbor lists.
inline void set_adjacency(GraphSample& s, const std::vector<std::vector<int>>& lists) {
  s.nbr_offsets.assign(1, 0);
  s.nbr.clear();
  s.inv_deg.clear();
  s.nbr_offsets.reserve(lists.size() + 1);
  s.inv_deg.reserve(lists.size());
  for (const auto& l : lists) {
    s.nbr.insert(s.nbr.end(), l.begin(), l.end());
    s.nbr_offsets.push_back(static_cast<int>(s.nbr.size()));
    s.inv_deg.push_back(1.0 / (1.0 + static_cast<double>(l.size())));
  }
}

// Sets feat_offsets/feat from per-node active-column lists, taken as given
// (Dgcnn rejects lists that are not strictly ascending and in range).
inline void set_features(GraphSample& s, const std::vector<std::vector<int>>& lists) {
  s.feat_offsets.assign(1, 0);
  s.feat.clear();
  for (const auto& l : lists) {
    s.feat.insert(s.feat.end(), l.begin(), l.end());
    s.feat_offsets.push_back(static_cast<int>(s.feat.size()));
  }
}

// The sample's X as a dense num_nodes × dim 0/1 matrix.
inline Matrix dense_features(const GraphSample& s, int dim) {
  Matrix x(s.num_nodes(), dim);
  for (int i = 0; i < s.num_nodes(); ++i) {
    for (int c : s.features(i)) x.at(i, c) = 1.0;
  }
  return x;
}

// A random n-node sample with k-hot features over `dim` columns: each node
// draws 0..3 distinct columns, every fifth node (4, 9, ...) is isolated, and
// node 4 has no column either, so its propagated row is empty.
inline GraphSample random_khot_sample(int n, int dim, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<int>> nbr(n), feat(n);
  for (int e = 0; e < n; ++e) {
    const int u = static_cast<int>(rng() % n), v = static_cast<int>(rng() % n);
    if (u == v || u % 5 == 4 || v % 5 == 4) continue;
    if (std::find(nbr[u].begin(), nbr[u].end(), v) != nbr[u].end()) continue;
    nbr[u].push_back(v);
    nbr[v].push_back(u);
  }
  for (int i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng() % 4);
    for (int t = 0; t < k; ++t) feat[i].push_back(static_cast<int>(rng() % dim));
    std::sort(feat[i].begin(), feat[i].end());
    feat[i].erase(std::unique(feat[i].begin(), feat[i].end()), feat[i].end());
  }
  if (n > 4) feat[4].clear();
  GraphSample s;
  set_adjacency(s, nbr);
  set_features(s, feat);
  return s;
}

}  // namespace muxlink::gnn
