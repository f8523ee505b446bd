#include "attacks/snapshot.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "attacks/key_trace.h"

namespace muxlink::attacks {

using locking::KeyBit;
using netlist::GateId;
using netlist::GateType;
using netlist::kNullGate;
using netlist::Netlist;

namespace {

// One-hot width per tree slot: every gate type plus an "absent" marker.
constexpr int kSlotWidth = netlist::kNumGateTypes + 1;

// Number of slots in a truncated tree of the given depth/branching.
std::size_t tree_slots(int depth, int branch) {
  std::size_t slots = 0, level = 1;
  for (int d = 0; d <= depth; ++d) {
    slots += level;
    level *= static_cast<std::size_t>(branch);
  }
  return slots;
}

// Breadth-first truncated tree starting at `root`, following fanins
// (toward_inputs) or fanouts. Appends tree_slots() one-hot slots to `out`.
void encode_tree(const Netlist& nl, GateId root, bool toward_inputs, int depth, int branch,
                 std::vector<double>& out) {
  const std::size_t total = tree_slots(depth, branch);
  const std::size_t base = out.size();
  out.resize(base + total * kSlotWidth, 0.0);
  std::vector<GateId> frontier{root};
  std::size_t slot = 0;
  for (int d = 0; d <= depth && slot < total; ++d) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      if (slot >= total) break;
      double* cell = out.data() + base + slot * kSlotWidth;
      if (g != kNullGate) {
        cell[static_cast<int>(nl.gate(g).type)] = 1.0;
        // Children.
        std::vector<GateId> kids;
        if (toward_inputs) {
          for (GateId f : nl.gate(g).fanins) kids.push_back(f);
        } else {
          for (const auto& r : nl.fanouts(g)) kids.push_back(r.sink);
        }
        kids.resize(static_cast<std::size_t>(branch), kNullGate);
        next.insert(next.end(), kids.begin(), kids.begin() + branch);
      } else {
        cell[netlist::kNumGateTypes] = 1.0;  // absent marker
        next.insert(next.end(), static_cast<std::size_t>(branch), kNullGate);
      }
      ++slot;
    }
    frontier = std::move(next);
  }
}

}  // namespace

std::vector<double> locality_vector(const Netlist& nl, GateId key_gate,
                                    const SnapshotOptions& opts) {
  std::vector<double> v;
  v.reserve((tree_slots(opts.fanin_depth, opts.branch) +
             tree_slots(opts.fanout_depth, opts.branch)) *
            static_cast<std::size_t>(kSlotWidth));
  encode_tree(nl, key_gate, /*toward_inputs=*/true, opts.fanin_depth, opts.branch, v);
  encode_tree(nl, key_gate, /*toward_inputs=*/false, opts.fanout_depth, opts.branch, v);
  return v;
}

SnapshotAttack::SnapshotAttack(const SnapshotOptions& opts) : opts_(opts) {
  input_dim_ = static_cast<int>((tree_slots(opts_.fanin_depth, opts_.branch) +
                                 tree_slots(opts_.fanout_depth, opts_.branch)) *
                                static_cast<std::size_t>(netlist::kNumGateTypes + 1));
}

std::vector<GateId> SnapshotAttack::key_gates_of(const Netlist& nl) {
  const auto keys = find_key_inputs(nl);
  std::vector<GateId> gates(keys.size(), kNullGate);
  for (const KeyInput& k : keys) {
    if (nl.fanouts(k.gate).empty()) {
      throw netlist::NetlistError("key input '" + k.name + "' drives nothing");
    }
    gates[static_cast<std::size_t>(k.bit)] = nl.fanouts(k.gate).front().sink;
  }
  return gates;
}

void SnapshotAttack::add_training_design(const locking::LockedDesign& design) {
  const auto gates = key_gates_of(design.netlist);
  for (std::size_t bit = 0; bit < gates.size(); ++bit) {
    samples_.push_back(
        {locality_vector(design.netlist, gates[bit], opts_), design.key[bit] != 0 ? 1 : 0});
  }
  model_.reset();
}

gnn::MlpTrainReport SnapshotAttack::train() {
  if (samples_.empty()) throw std::logic_error("SnapshotAttack::train: no samples");
  model_ = std::make_unique<gnn::Mlp>(input_dim_, opts_.mlp);
  return gnn::train_mlp(*model_, samples_, opts_.training);
}

std::vector<KeyBit> SnapshotAttack::attack(const Netlist& locked) const {
  if (!model_) throw std::logic_error("SnapshotAttack: call train() first");
  const auto gates = key_gates_of(locked);
  std::vector<KeyBit> key;
  key.reserve(gates.size());
  for (GateId g : gates) {
    const double p1 = model_->predict(locality_vector(locked, g, opts_));
    if (std::abs(p1 - 0.5) < opts_.margin) {
      key.push_back(KeyBit::kUnknown);
    } else {
      key.push_back(p1 >= 0.5 ? KeyBit::kOne : KeyBit::kZero);
    }
  }
  return key;
}

}  // namespace muxlink::attacks
