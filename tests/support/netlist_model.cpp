#include "support/netlist_model.h"

#include <algorithm>
#include <set>

namespace muxlink::netlist {

void NetlistModel::check_arity(GateType type, std::size_t n, const std::string& name) const {
  const int lo = min_fanin(type);
  const int hi = max_fanin(type);
  if (static_cast<int>(n) < lo || (hi >= 0 && static_cast<int>(n) > hi)) {
    throw NetlistError("gate '" + name + "': " + std::string(to_string(type)) +
                       " cannot take " + std::to_string(n) + " fanins");
  }
}

GateId NetlistModel::add_gate(const std::string& name, GateType type,
                              const std::vector<GateId>& fanins) {
  if (name.empty()) throw NetlistError("gate name must not be empty");
  if (index_.contains(name)) throw NetlistError("duplicate gate name '" + name + "'");
  check_arity(type, fanins.size(), name);
  for (GateId f : fanins) {
    if (f >= num_gates()) {
      throw NetlistError("gate '" + name + "': dangling fanin id " + std::to_string(f));
    }
  }
  const auto id = static_cast<GateId>(num_gates());
  names_.push_back(name);
  types_.push_back(type);
  fanins_.push_back(fanins);
  index_[name] = id;
  if (type == GateType::kInput) inputs_.push_back(id);
  return id;
}

void NetlistModel::mark_output(GateId id) {
  if (id >= num_gates()) throw NetlistError("mark_output: bad gate id");
  if (!is_output(id)) outputs_.push_back(id);
}

void NetlistModel::unmark_output(GateId id) {
  outputs_.erase(std::remove(outputs_.begin(), outputs_.end(), id), outputs_.end());
}

bool NetlistModel::is_output(GateId id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

GateId NetlistModel::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kNullGate : it->second;
}

void NetlistModel::replace_fanin(GateId sink, std::size_t port, GateId new_driver) {
  if (sink >= num_gates()) throw NetlistError("replace_fanin: bad sink id");
  if (new_driver >= num_gates()) throw NetlistError("replace_fanin: bad driver id");
  if (port >= fanins_[sink].size()) throw NetlistError("replace_fanin: bad port index");
  fanins_[sink][port] = new_driver;
}

void NetlistModel::rewrite_gate(GateId id, GateType type, const std::vector<GateId>& fanins) {
  if (id >= num_gates()) throw NetlistError("rewrite_gate: bad gate id");
  if (types_[id] == GateType::kInput || type == GateType::kInput) {
    throw NetlistError("rewrite_gate: cannot rewrite to/from INPUT");
  }
  check_arity(type, fanins.size(), names_[id]);
  for (GateId f : fanins) {
    if (f >= num_gates()) throw NetlistError("rewrite_gate: dangling fanin id");
  }
  types_[id] = type;
  fanins_[id] = fanins;
}

void NetlistModel::rename_gate(GateId id, const std::string& name) {
  if (id >= num_gates()) throw NetlistError("rename_gate: bad gate id");
  if (name.empty()) throw NetlistError("rename_gate: empty name");
  if (index_.contains(name)) throw NetlistError("rename_gate: duplicate name '" + name + "'");
  index_.erase(names_[id]);
  index_[name] = id;
  names_[id] = name;
}

std::vector<GateId> NetlistModel::remove_gates(const std::vector<bool>& dead) {
  if (dead.size() != num_gates()) throw NetlistError("remove_gates: mask size mismatch");
  for (GateId g = 0; g < num_gates(); ++g) {
    if (dead[g]) continue;
    for (GateId f : fanins_[g]) {
      if (dead[f]) {
        throw NetlistError("remove_gates: live gate '" + names_[g] + "' driven by dead gate '" +
                           names_[f] + "'");
      }
    }
  }
  for (GateId o : outputs_) {
    if (dead[o]) throw NetlistError("remove_gates: primary output '" + names_[o] + "' is dead");
  }
  std::vector<GateId> remap(num_gates(), kNullGate);
  GateId next = 0;
  for (GateId g = 0; g < num_gates(); ++g) {
    if (!dead[g]) remap[g] = next++;
  }
  NetlistModel kept(name_);
  for (GateId g = 0; g < num_gates(); ++g) {
    if (dead[g]) continue;
    std::vector<GateId> fanins;
    for (GateId f : fanins_[g]) fanins.push_back(remap[f]);
    kept.names_.push_back(names_[g]);
    kept.types_.push_back(types_[g]);
    kept.fanins_.push_back(fanins);
    kept.index_[names_[g]] = remap[g];
  }
  for (GateId i : inputs_) {
    if (remap[i] != kNullGate) kept.inputs_.push_back(remap[i]);
  }
  for (GateId o : outputs_) kept.outputs_.push_back(remap[o]);
  *this = std::move(kept);
  return remap;
}

std::vector<Netlist::FanoutRef> NetlistModel::fanouts(GateId id) const {
  std::vector<Netlist::FanoutRef> refs;
  for (GateId g = 0; g < num_gates(); ++g) {
    for (std::uint32_t p = 0; p < fanins_[g].size(); ++p) {
      if (fanins_[g][p] == id) refs.push_back({g, p});
    }
  }
  return refs;
}

std::size_t NetlistModel::fanout_gate_count(GateId id) const {
  std::set<GateId> sinks;
  for (const auto& r : fanouts(id)) sinks.insert(r.sink);
  return sinks.size();
}

std::string NetlistModel::write_bench() const {
  // Kahn's algorithm with a FIFO seeded in id order, releasing each gate's
  // sinks in (sink, port) order.
  std::vector<std::size_t> pending(num_gates());
  std::vector<GateId> order;
  for (GateId g = 0; g < num_gates(); ++g) {
    pending[g] = fanins_[g].size();
    if (pending[g] == 0) order.push_back(g);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& r : fanouts(order[head])) {
      if (--pending[r.sink] == 0) order.push_back(r.sink);
    }
  }
  if (order.size() != num_gates()) {
    throw NetlistError("topological_order: combinational loop detected in '" + name_ + "'");
  }
  std::string out = "# " + name_ + " — emitted by muxlink\n";
  for (GateId i : inputs_) out += "INPUT(" + names_[i] + ")\n";
  for (GateId o : outputs_) out += "OUTPUT(" + names_[o] + ")\n";
  out += '\n';
  for (GateId g : order) {
    if (types_[g] == GateType::kInput) continue;
    out += names_[g] + " = " + std::string(to_string(types_[g])) + "(";
    for (std::size_t i = 0; i < fanins_[g].size(); ++i) {
      out += (i > 0 ? ", " : "") + names_[fanins_[g][i]];
    }
    out += ")\n";
  }
  return out;
}

}  // namespace muxlink::netlist
