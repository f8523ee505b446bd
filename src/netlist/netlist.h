// Core combinational netlist data structure.
//
// A Netlist addresses its gates by dense GateId. Primary inputs are gates of
// GateType::kInput; primary outputs are a marked subset of gate ids (a gate
// may simultaneously drive internal logic and be a PO, exactly as in BENCH).
//
// Storage is flat (DESIGN.md §6): every name lives in one character arena,
// every fanin list in one GateId pool, and a gate is a fixed-size record of
// offsets into them plus its type and PO flag. Records hold offsets, never
// pointers, so the default copy is a correct deep copy. gate(id) returns a
// small view into that storage; a view is invalidated by any mutation.
// All mutation goes through the member functions so the name index and
// fanout cache stay consistent.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate_type.h"

namespace muxlink::netlist {

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = 0xFFFFFFFFu;

// A gate's name: a string_view into the netlist's name arena. The two
// operator+ overloads let `prefix + name` build a std::string as it did
// when names were strings.
struct GateName : std::string_view {
  GateName() = default;
  GateName(std::string_view s) noexcept : std::string_view(s) {}
  friend std::string operator+(std::string lhs, GateName rhs) { return lhs.append(rhs); }
  friend std::string operator+(GateName lhs, std::string_view rhs) {
    return std::string(lhs).append(rhs);
  }
};

// A read-only view of one gate, valid until the netlist is next mutated.
struct Gate {
  GateName name;
  GateType type = GateType::kBuf;
  std::span<const GateId> fanins;
};

// Thrown on structural violations (duplicate names, bad arity, unknown ids).
class NetlistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------
  // Adds a gate; fanin ids must already exist. Throws NetlistError on an
  // empty name, a duplicate name, an arity violation or a dangling fanin id,
  // in that order; a rejected gate leaves the netlist unchanged.
  GateId add_gate(std::string_view name, GateType type, std::span<const GateId> fanins) {
    return add_gate(name, hash_name(name), type, fanins);
  }
  GateId add_gate(std::string_view name, GateType type, std::initializer_list<GateId> fanins) {
    return add_gate(name, type, std::span<const GateId>(fanins.begin(), fanins.size()));
  }
  GateId add_input(std::string_view name) { return add_gate(name, GateType::kInput, {}); }
  // Sizes the storage for `gates` gates (`inputs` of them INPUTs),
  // `outputs` POs, `name_bytes` bytes of names and `fanins` fanin ids.
  void reserve(std::size_t gates, std::size_t inputs, std::size_t outputs,
               std::size_t name_bytes, std::size_t fanins);
  // Marks an existing gate as a primary output (idempotent). outputs() keeps
  // the order of the first marking.
  void mark_output(GateId id);
  void unmark_output(GateId id);

  // --- access --------------------------------------------------------------
  std::size_t num_gates() const noexcept { return gates_.size(); }
  Gate gate(GateId id) const {
    const Record& r = gates_.at(id);
    return {name_of(r), r.type, {fanin_pool_.data() + r.fanin_begin, r.fanin_count}};
  }
  const std::vector<GateId>& inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }
  bool is_output(GateId id) const noexcept { return id < gates_.size() && gates_[id].output; }

  // Returns kNullGate when no gate has this name.
  GateId find(std::string_view name) const noexcept;
  bool contains(std::string_view name) const noexcept { return find(name) != kNullGate; }

  // --- mutation (used by locking / synthesis) ------------------------------
  // Replaces gate `sink`'s fanin at `port` with `new_driver`.
  void replace_fanin(GateId sink, std::size_t port, GateId new_driver);
  // Changes a gate's type and fanins in place (arity re-checked). The new
  // fanins are a new pool slice; the old one stays as garbage until
  // remove_gates() compacts.
  void rewrite_gate(GateId id, GateType type, std::span<const GateId> fanins);
  void rewrite_gate(GateId id, GateType type, std::initializer_list<GateId> fanins) {
    rewrite_gate(id, type, std::span<const GateId>(fanins.begin(), fanins.size()));
  }
  // Renames a gate (name must be fresh). The new name is appended to the
  // arena; the old bytes stay as garbage until remove_gates() compacts.
  void rename_gate(GateId id, std::string_view name);

  // Fanouts of gate `id` as (sink, port) pairs in ascending (sink, port)
  // order. The CSR behind them is rebuilt on demand after any mutation.
  struct FanoutRef {
    GateId sink;
    std::uint32_t port;
    friend bool operator==(const FanoutRef&, const FanoutRef&) = default;
  };
  std::span<const FanoutRef> fanouts(GateId id) const {
    if (!fanouts_valid_) build_fanouts();
    const std::uint32_t end = fanout_begin_.at(id + std::size_t{1});
    return {fanout_refs_.data() + fanout_begin_[id], end - fanout_begin_[id]};
  }
  // Number of distinct sink gates (a gate feeding two ports of one sink
  // counts once); POs do not count as fanout.
  std::size_t fanout_gate_count(GateId id) const;

  // Removes gates for which `dead[id]` is true, compacting ids and the
  // name/fanin storage. Returns the old-id -> new-id map (kNullGate for
  // removed gates). Dead gates must not drive surviving gates and must not
  // be POs.
  std::vector<GateId> remove_gates(const std::vector<bool>& dead);

  // Structural sanity check: name index consistent, fanin ids valid, arities
  // respected, input and output lists match the gates. Throws NetlistError
  // with a description.
  void validate() const;

  // The hash the name index keys on.
  static std::size_t hash_name(std::string_view name) noexcept {
    return std::hash<std::string_view>{}(name);
  }

 private:
  // parse_bench hashes every name while interning it and hands the hash
  // over, so a parse hashes each name once.
  friend Netlist parse_bench(std::string_view text, std::string name);
  GateId add_gate(std::string_view name, std::size_t hash, GateType type,
                  std::span<const GateId> fanins);

  struct Record {
    std::uint32_t name_begin;  // names_[name_begin, name_begin + name_size)
    std::uint32_t name_size;
    std::uint32_t fanin_begin;  // fanin_pool_[fanin_begin, fanin_begin + fanin_count)
    std::uint32_t fanin_count;
    std::size_t hash;  // hash_name(name)
    GateType type;
    bool output;
  };

  std::string_view name_of(const Record& r) const noexcept {
    return {names_.data() + r.name_begin, r.name_size};
  }
  void check_arity(GateType type, std::size_t n, std::string_view name) const;
  // The index slot holding `name`, or the empty slot where it would go.
  std::size_t probe(std::string_view name, std::size_t hash) const noexcept;
  void grow_index(std::size_t min_gates);
  void erase_index_slot(std::size_t slot) noexcept;
  void build_fanouts() const;
  void invalidate_caches() noexcept { fanouts_valid_ = false; }

  std::string name_;
  std::vector<Record> gates_;
  std::string names_;              // name arena
  std::vector<GateId> fanin_pool_;  // fanin arena
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;  // in marking order
  // Open addressing with linear probing over gate ids (kNullGate = empty);
  // the size is a power of two at least twice the gate count.
  std::vector<GateId> index_;

  mutable bool fanouts_valid_ = false;
  mutable std::vector<std::uint32_t> fanout_begin_;  // size num_gates()+1
  mutable std::vector<FanoutRef> fanout_refs_;
};

}  // namespace muxlink::netlist
