#include "netlist/netlist.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace muxlink::netlist {
namespace {

// Appends `src` to `pool` and returns where it starts. `src` may be a view
// into `pool` itself (a gate's own name or fanins), so when the pool must
// grow, the copy is taken before the old buffer is freed. Records store
// 32-bit offsets, so a pool may not pass 2^32 entries.
template <typename Pool, typename Src>
std::uint32_t append(Pool& pool, const Src& src) {
  const std::size_t at = pool.size();
  if (src.size() > std::numeric_limits<std::uint32_t>::max() - at) {
    throw NetlistError("netlist storage exceeds 2^32 entries");
  }
  if (pool.capacity() - at < src.size()) {
    Pool grown;
    grown.reserve(std::max(2 * pool.capacity(), at + src.size()));
    grown.insert(grown.end(), pool.begin(), pool.end());
    grown.insert(grown.end(), src.begin(), src.end());
    pool.swap(grown);
  } else {
    pool.resize(at + src.size());  // no reallocation: `src` stays valid
    std::copy(src.begin(), src.end(), pool.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return static_cast<std::uint32_t>(at);
}

}  // namespace

void Netlist::check_arity(GateType type, std::size_t n, std::string_view name) const {
  const int lo = min_fanin(type);
  const int hi = max_fanin(type);
  if (static_cast<int>(n) < lo || (hi >= 0 && static_cast<int>(n) > hi)) {
    throw NetlistError("gate '" + std::string(name) + "': " + std::string(to_string(type)) +
                       " cannot take " + std::to_string(n) + " fanins");
  }
}

std::size_t Netlist::probe(std::string_view name, std::size_t hash) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const GateId g = index_[i];
    if (g == kNullGate || (gates_[g].hash == hash && name_of(gates_[g]) == name)) return i;
  }
}

void Netlist::grow_index(std::size_t min_gates) {
  const std::size_t size = std::bit_ceil(std::max<std::size_t>(16, 2 * min_gates));
  if (size <= index_.size()) return;
  index_.assign(size, kNullGate);
  const std::size_t mask = size - 1;
  for (GateId g = 0; g < gates_.size(); ++g) {
    std::size_t i = gates_[g].hash & mask;
    while (index_[i] != kNullGate) i = (i + 1) & mask;
    index_[i] = g;
  }
}

// Backward-shift deletion: later members of the probe run move up so that
// every lookup still reaches its gate without crossing an empty slot.
void Netlist::erase_index_slot(std::size_t slot) noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t next = (slot + 1) & mask; index_[next] != kNullGate;
       next = (next + 1) & mask) {
    const std::size_t home = gates_[index_[next]].hash & mask;
    // `next` may fill `slot` unless its home lies cyclically in (slot, next].
    if (((next - home) & mask) >= ((next - slot) & mask)) {
      index_[slot] = index_[next];
      slot = next;
    }
  }
  index_[slot] = kNullGate;
}

GateId Netlist::add_gate(std::string_view name, std::size_t hash, GateType type,
                         std::span<const GateId> fanins) {
  if (name.empty()) throw NetlistError("gate name must not be empty");
  grow_index(gates_.size() + 1);
  const std::size_t slot = probe(name, hash);
  if (index_[slot] != kNullGate) {
    throw NetlistError("duplicate gate name '" + std::string(name) + "'");
  }
  check_arity(type, fanins.size(), name);
  for (GateId f : fanins) {
    if (f >= gates_.size()) {
      throw NetlistError("gate '" + std::string(name) + "': dangling fanin id " +
                         std::to_string(f));
    }
  }
  const GateId id = static_cast<GateId>(gates_.size());
  const std::uint32_t name_begin = append(names_, name);
  const std::uint32_t fanin_begin = append(fanin_pool_, fanins);
  gates_.push_back(Record{name_begin, static_cast<std::uint32_t>(name.size()), fanin_begin,
                          static_cast<std::uint32_t>(fanins.size()), hash, type, false});
  index_[slot] = id;
  if (type == GateType::kInput) inputs_.push_back(id);
  invalidate_caches();
  return id;
}

void Netlist::reserve(std::size_t gates, std::size_t inputs, std::size_t outputs,
                      std::size_t name_bytes, std::size_t fanins) {
  gates_.reserve(gates);
  inputs_.reserve(inputs);
  outputs_.reserve(outputs);
  names_.reserve(name_bytes);
  fanin_pool_.reserve(fanins);
  grow_index(gates);
}

void Netlist::mark_output(GateId id) {
  if (id >= gates_.size()) throw NetlistError("mark_output: bad gate id");
  if (!gates_[id].output) {
    gates_[id].output = true;
    outputs_.push_back(id);
  }
}

void Netlist::unmark_output(GateId id) {
  if (id >= gates_.size() || !gates_[id].output) return;
  gates_[id].output = false;
  outputs_.erase(std::find(outputs_.begin(), outputs_.end(), id));
}

GateId Netlist::find(std::string_view name) const noexcept {
  if (index_.empty()) return kNullGate;
  return index_[probe(name, hash_name(name))];
}

void Netlist::replace_fanin(GateId sink, std::size_t port, GateId new_driver) {
  if (sink >= gates_.size()) throw NetlistError("replace_fanin: bad sink id");
  if (new_driver >= gates_.size()) throw NetlistError("replace_fanin: bad driver id");
  const Record& r = gates_[sink];
  if (port >= r.fanin_count) throw NetlistError("replace_fanin: bad port index");
  fanin_pool_[r.fanin_begin + port] = new_driver;
  invalidate_caches();
}

void Netlist::rewrite_gate(GateId id, GateType type, std::span<const GateId> fanins) {
  if (id >= gates_.size()) throw NetlistError("rewrite_gate: bad gate id");
  if (gates_[id].type == GateType::kInput || type == GateType::kInput) {
    throw NetlistError("rewrite_gate: cannot rewrite to/from INPUT");
  }
  check_arity(type, fanins.size(), name_of(gates_[id]));
  for (GateId f : fanins) {
    if (f >= gates_.size()) throw NetlistError("rewrite_gate: dangling fanin id");
  }
  const std::uint32_t begin = append(fanin_pool_, fanins);
  Record& r = gates_[id];
  r.type = type;
  r.fanin_begin = begin;
  r.fanin_count = static_cast<std::uint32_t>(fanins.size());
  invalidate_caches();
}

void Netlist::rename_gate(GateId id, std::string_view name) {
  if (id >= gates_.size()) throw NetlistError("rename_gate: bad gate id");
  if (name.empty()) throw NetlistError("rename_gate: empty name");
  const std::size_t hash = hash_name(name);
  if (index_[probe(name, hash)] != kNullGate) {
    throw NetlistError("rename_gate: duplicate name '" + std::string(name) + "'");
  }
  erase_index_slot(probe(name_of(gates_[id]), gates_[id].hash));
  const std::uint32_t begin = append(names_, name);
  Record& r = gates_[id];
  r.name_begin = begin;
  r.name_size = static_cast<std::uint32_t>(name.size());
  r.hash = hash;
  index_[probe(name_of(r), hash)] = id;
}

void Netlist::build_fanouts() const {
  // Counting sort by driver over a scan in ascending (sink, port) order, so
  // every slice comes out in that order.
  fanout_begin_.assign(gates_.size() + 1, 0);
  for (GateId g = 0; g < gates_.size(); ++g) {
    for (GateId f : gate(g).fanins) ++fanout_begin_[f + 1];
  }
  for (std::size_t g = 0; g < gates_.size(); ++g) fanout_begin_[g + 1] += fanout_begin_[g];
  fanout_refs_.resize(fanout_begin_.back());
  // fanout_begin_[d] walks through d's slice, ending at the next slice's
  // start; the shift below restores the starts.
  for (GateId g = 0; g < gates_.size(); ++g) {
    const auto fanins = gate(g).fanins;
    for (std::uint32_t p = 0; p < fanins.size(); ++p) fanout_refs_[fanout_begin_[fanins[p]]++] = {g, p};
  }
  for (std::size_t g = gates_.size(); g > 0; --g) fanout_begin_[g] = fanout_begin_[g - 1];
  fanout_begin_[0] = 0;
  fanouts_valid_ = true;
}

std::size_t Netlist::fanout_gate_count(GateId id) const {
  std::size_t sinks = 0;
  GateId last = kNullGate;
  for (const FanoutRef& r : fanouts(id)) {  // sorted by sink
    sinks += r.sink != last ? 1 : 0;
    last = r.sink;
  }
  return sinks;
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
    for (GateId f : gate(g).fanins) {
      if (dead[f]) {
        throw NetlistError("remove_gates: live gate '" + gate(g).name +
                           "' driven by dead gate '" + gate(f).name + "'");
      }
    }
  }
  for (GateId o : outputs_) {
    if (dead[o]) throw NetlistError("remove_gates: primary output '" + gate(o).name + "' is dead");
  }

  // Compaction drops the dead gates and the garbage left by rewrites and
  // renames.
  std::vector<Record> kept;
  kept.reserve(next);
  std::string names;
  names.reserve(names_.size());
  std::vector<GateId> pool;
  pool.reserve(fanin_pool_.size());
  for (GateId g = 0; g < gates_.size(); ++g) {
    if (dead[g]) continue;
    Record r = gates_[g];
    const Gate view = gate(g);
    r.name_begin = static_cast<std::uint32_t>(names.size());
    names += view.name;
    r.fanin_begin = static_cast<std::uint32_t>(pool.size());
    for (GateId f : view.fanins) pool.push_back(remap[f]);
    kept.push_back(r);
  }
  gates_ = std::move(kept);
  names_ = std::move(names);
  fanin_pool_ = std::move(pool);
  index_.clear();
  grow_index(gates_.size());
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
  const auto indexed = std::count_if(index_.begin(), index_.end(),
                                     [](GateId g) { return g != kNullGate; });
  if (static_cast<std::size_t>(indexed) != gates_.size()) {
    throw NetlistError("validate: name index out of sync");
  }
  std::size_t declared_inputs = 0;
  std::size_t flagged_outputs = 0;
  for (GateId g = 0; g < gates_.size(); ++g) {
    const Gate view = gate(g);
    if (find(view.name) != g) {
      throw NetlistError("validate: name index broken for '" + view.name + "'");
    }
    check_arity(view.type, view.fanins.size(), view.name);
    for (GateId f : view.fanins) {
      if (f >= gates_.size()) throw NetlistError("validate: dangling fanin in '" + view.name + "'");
    }
    declared_inputs += view.type == GateType::kInput ? 1 : 0;
    flagged_outputs += gates_[g].output ? 1 : 0;
  }
  for (GateId i : inputs_) {
    if (i >= gates_.size() || gates_[i].type != GateType::kInput) {
      throw NetlistError("validate: input list corrupt");
    }
  }
  if (declared_inputs != inputs_.size()) throw NetlistError("validate: input list incomplete");
  for (GateId o : outputs_) {
    if (o >= gates_.size()) throw NetlistError("validate: output id out of range");
    if (!gates_[o].output) throw NetlistError("validate: output flags out of sync");
  }
  if (flagged_outputs != outputs_.size()) throw NetlistError("validate: output flags out of sync");
}

}  // namespace muxlink::netlist
