#include "gnn/encoding.h"

namespace muxlink::gnn {

int feature_dim_for_hops(int hops) {
  return graph::kNumTypeFeatures + graph::max_drnl_label(hops) + 1;
}

GraphSample encode_subgraph(const graph::Subgraph& sg, int hops, int label) {
  const int n = static_cast<int>(sg.num_nodes());
  const int label_dim = graph::max_drnl_label(hops) + 1;
  GraphSample g;
  g.label = label;
  // Both sides are CSR; copy the flat arrays straight across.
  g.nbr_offsets.assign(sg.adj_offsets.begin(), sg.adj_offsets.end());
  g.nbr.assign(sg.adj_neighbors.begin(), sg.adj_neighbors.end());
  g.inv_deg.resize(n);
  for (int i = 0; i < n; ++i) {
    g.inv_deg[i] = 1.0 / (1.0 + static_cast<double>(sg.degree(i)));
  }
  // Two active columns per node, ascending: the gate-function bit, then the
  // DRNL bit past the kNumTypeFeatures type columns.
  g.feat_offsets.resize(n + 1);
  g.feat.resize(2 * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int drnl = sg.drnl[i];
    if (drnl < 0 || drnl >= label_dim) drnl = 0;
    g.feat_offsets[i] = 2 * i;
    g.feat[2 * i] = graph::type_feature_index(sg.type[i]);
    g.feat[2 * i + 1] = graph::kNumTypeFeatures + drnl;
  }
  g.feat_offsets[n] = 2 * n;
  return g;
}

}  // namespace muxlink::gnn
