// Core combinational netlist data structure.
//
// A Netlist owns a flat vector of gates addressed by dense GateId. Primary
// inputs are gates of GateType::kInput; primary outputs are a marked subset
// of gate ids (a gate may simultaneously drive internal logic and be a PO,
// exactly as in BENCH). All mutation goes through the member functions so
// the name index and fanout cache stay consistent.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/gate_type.h"

namespace muxlink::netlist {

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = 0xFFFFFFFFu;

struct Gate {
  std::string name;
  GateType type = GateType::kBuf;
  std::vector<GateId> fanins;
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
  // Adds a gate; fanin ids must already exist. Throws NetlistError on
  // duplicate name, arity violation, or dangling fanin id.
  GateId add_gate(std::string name, GateType type, std::vector<GateId> fanins);
  GateId add_input(std::string name) { return add_gate(std::move(name), GateType::kInput, {}); }
  // Reserves room for `n` gates in the gate list and the name index.
  void reserve(std::size_t n);
  // Marks an existing gate as a primary output (idempotent).
  void mark_output(GateId id);
  void unmark_output(GateId id);

  // --- access --------------------------------------------------------------
  std::size_t num_gates() const noexcept { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  std::span<const Gate> gates() const noexcept { return gates_; }
  const std::vector<GateId>& inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }
  bool is_output(GateId id) const;

  // Returns kNullGate when no gate has this name.
  GateId find(std::string_view name) const noexcept;
  bool contains(std::string_view name) const noexcept { return find(name) != kNullGate; }

  // --- mutation (used by locking / synthesis) ------------------------------
  // Replaces gate `sink`'s fanin at `port` with `new_driver`.
  void replace_fanin(GateId sink, std::size_t port, GateId new_driver);
  // Changes a gate's type and fanins in place (arity re-checked).
  void rewrite_gate(GateId id, GateType type, std::vector<GateId> fanins);
  // Renames a gate (name must be fresh).
  void rename_gate(GateId id, std::string name);

  // Fanout map: fanouts()[g] lists (sink, port) pairs. Recomputed on demand
  // and invalidated by any mutation.
  struct FanoutRef {
    GateId sink;
    std::uint32_t port;
    friend bool operator==(const FanoutRef&, const FanoutRef&) = default;
  };
  const std::vector<std::vector<FanoutRef>>& fanouts() const;
  // Number of distinct sink gates (a gate feeding two ports of one sink
  // counts once); POs do not count as fanout.
  std::size_t fanout_gate_count(GateId id) const;

  // Removes gates for which `dead[id]` is true, compacting ids. Returns the
  // old-id -> new-id map (kNullGate for removed gates). Dead gates must not
  // drive surviving gates and must not be POs.
  std::vector<GateId> remove_gates(const std::vector<bool>& dead);

  // Structural sanity check: name index consistent, fanin ids valid, arities
  // respected, outputs exist. Throws NetlistError with a description.
  void validate() const;

 private:
  // Transparent, so find(string_view) probes without building a string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  void check_arity(GateType type, std::size_t n, const std::string& name) const;
  void invalidate_caches() noexcept { fanouts_valid_ = false; }

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::unordered_map<std::string, GateId, NameHash, std::equal_to<>> by_name_;

  mutable bool fanouts_valid_ = false;
  mutable std::vector<std::vector<FanoutRef>> fanouts_;
};

}  // namespace muxlink::netlist
