#include "netlist/netlist.h"

#include <algorithm>

namespace muxlink::netlist {

void Netlist::check_arity(GateType type, std::size_t n, const std::string& name) const {
  const int lo = min_fanin(type);
  const int hi = max_fanin(type);
  if (static_cast<int>(n) < lo || (hi >= 0 && static_cast<int>(n) > hi)) {
    throw NetlistError("gate '" + name + "': " + std::string(to_string(type)) +
                       " cannot take " + std::to_string(n) + " fanins");
  }
}

GateId Netlist::add_gate(std::string name, GateType type, std::vector<GateId> fanins) {
  if (name.empty()) throw NetlistError("gate name must not be empty");
  const GateId id = static_cast<GateId>(gates_.size());
  // One probe inserts the name; a failed check below takes it back out.
  const auto [slot, inserted] = by_name_.try_emplace(name, id);
  if (!inserted) throw NetlistError("duplicate gate name '" + name + "'");
  try {
    check_arity(type, fanins.size(), name);
    for (GateId f : fanins) {
      if (f >= gates_.size()) {
        throw NetlistError("gate '" + name + "': dangling fanin id " + std::to_string(f));
      }
    }
  } catch (...) {
    by_name_.erase(slot);
    throw;
  }
  if (type == GateType::kInput) inputs_.push_back(id);
  gates_.push_back(Gate{std::move(name), type, std::move(fanins)});
  invalidate_caches();
  return id;
}

void Netlist::reserve(std::size_t n) {
  gates_.reserve(n);
  by_name_.reserve(n);
}

void Netlist::mark_output(GateId id) {
  if (id >= gates_.size()) throw NetlistError("mark_output: bad gate id");
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) outputs_.push_back(id);
}

void Netlist::unmark_output(GateId id) {
  outputs_.erase(std::remove(outputs_.begin(), outputs_.end(), id), outputs_.end());
}

bool Netlist::is_output(GateId id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

GateId Netlist::find(std::string_view name) const noexcept {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNullGate : it->second;
}

void Netlist::replace_fanin(GateId sink, std::size_t port, GateId new_driver) {
  if (sink >= gates_.size()) throw NetlistError("replace_fanin: bad sink id");
  if (new_driver >= gates_.size()) throw NetlistError("replace_fanin: bad driver id");
  Gate& g = gates_[sink];
  if (port >= g.fanins.size()) throw NetlistError("replace_fanin: bad port index");
  g.fanins[port] = new_driver;
  invalidate_caches();
}

void Netlist::rewrite_gate(GateId id, GateType type, std::vector<GateId> fanins) {
  if (id >= gates_.size()) throw NetlistError("rewrite_gate: bad gate id");
  Gate& g = gates_[id];
  if (g.type == GateType::kInput || type == GateType::kInput) {
    throw NetlistError("rewrite_gate: cannot rewrite to/from INPUT");
  }
  check_arity(type, fanins.size(), g.name);
  for (GateId f : fanins) {
    if (f >= gates_.size()) throw NetlistError("rewrite_gate: dangling fanin id");
  }
  g.type = type;
  g.fanins = std::move(fanins);
  invalidate_caches();
}

void Netlist::rename_gate(GateId id, std::string name) {
  if (id >= gates_.size()) throw NetlistError("rename_gate: bad gate id");
  if (name.empty()) throw NetlistError("rename_gate: empty name");
  if (by_name_.contains(name)) throw NetlistError("rename_gate: duplicate name '" + name + "'");
  by_name_.erase(gates_[id].name);
  by_name_.emplace(name, id);
  gates_[id].name = std::move(name);
}

const std::vector<std::vector<Netlist::FanoutRef>>& Netlist::fanouts() const {
  if (!fanouts_valid_) {
    fanouts_.assign(gates_.size(), {});
    for (GateId g = 0; g < gates_.size(); ++g) {
      const auto& fi = gates_[g].fanins;
      for (std::uint32_t p = 0; p < fi.size(); ++p) fanouts_[fi[p]].push_back({g, p});
    }
    fanouts_valid_ = true;
  }
  return fanouts_;
}

std::size_t Netlist::fanout_gate_count(GateId id) const {
  const auto& fo = fanouts().at(id);
  std::vector<GateId> sinks;
  sinks.reserve(fo.size());
  for (const FanoutRef& r : fo) sinks.push_back(r.sink);
  std::sort(sinks.begin(), sinks.end());
  sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
  return sinks.size();
}

std::vector<GateId> Netlist::remove_gates(const std::vector<bool>& dead) {
  if (dead.size() != gates_.size()) throw NetlistError("remove_gates: mask size mismatch");
  std::vector<GateId> remap(gates_.size(), kNullGate);
  GateId next = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (!dead[g]) remap[g] = next++;
  }
  // Check no surviving gate references a dead one and no PO is dead.
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (dead[g]) continue;
    for (GateId f : gates_[g].fanins) {
      if (dead[f]) {
        throw NetlistError("remove_gates: live gate '" + gates_[g].name +
                           "' driven by dead gate '" + gates_[f].name + "'");
      }
    }
  }
  for (GateId o : outputs_) {
    if (dead[o]) throw NetlistError("remove_gates: primary output '" + gates_[o].name + "' is dead");
  }

  std::vector<Gate> kept;
  kept.reserve(next);
  by_name_.clear();
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (dead[g]) continue;
    Gate gate = std::move(gates_[g]);
    for (GateId& f : gate.fanins) f = remap[f];
    by_name_.emplace(gate.name, remap[g]);
    kept.push_back(std::move(gate));
  }
  gates_ = std::move(kept);
  for (auto* list : {&inputs_, &outputs_}) {
    std::vector<GateId> updated;
    updated.reserve(list->size());
    for (GateId g : *list) {
      if (remap[g] != kNullGate) updated.push_back(remap[g]);
    }
    *list = std::move(updated);
  }
  invalidate_caches();
  return remap;
}

void Netlist::validate() const {
  if (by_name_.size() != gates_.size()) throw NetlistError("validate: name index out of sync");
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate& gate = gates_[g];
    auto it = by_name_.find(gate.name);
    if (it == by_name_.end() || it->second != g) {
      throw NetlistError("validate: name index broken for '" + gate.name + "'");
    }
    check_arity(gate.type, gate.fanins.size(), gate.name);
    for (GateId f : gate.fanins) {
      if (f >= gates_.size()) throw NetlistError("validate: dangling fanin in '" + gate.name + "'");
    }
  }
  for (GateId i : inputs_) {
    if (i >= gates_.size() || gates_[i].type != GateType::kInput) {
      throw NetlistError("validate: input list corrupt");
    }
  }
  std::size_t declared_inputs = 0;
  for (const Gate& g : gates_) declared_inputs += g.type == GateType::kInput ? 1 : 0;
  if (declared_inputs != inputs_.size()) throw NetlistError("validate: input list incomplete");
  for (GateId o : outputs_) {
    if (o >= gates_.size()) throw NetlistError("validate: output id out of range");
  }
}

}  // namespace muxlink::netlist
