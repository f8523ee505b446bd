// Builds a GraphSample by hand, for tests. The hot path (gnn/encoding.cpp)
// copies a Subgraph's CSR arrays directly instead.
#pragma once

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

}  // namespace muxlink::gnn
