// Naive reference model of netlist::Netlist, kept as the oracle for the
// differential mutation test of the flat netlist.
//
// One std::string name and one std::vector of fanins per gate, a std::map
// name index, and fanouts, topological order and BENCH text recomputed from
// scratch on every query. Every mutation runs the same checks in the same
// order and throws the same NetlistError text as the real netlist. It is
// deliberately kept simple and obviously correct. Do not optimize this file.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace muxlink::netlist {

class NetlistModel {
 public:
  explicit NetlistModel(std::string name) : name_(std::move(name)) {}

  GateId add_gate(const std::string& name, GateType type, const std::vector<GateId>& fanins);
  void mark_output(GateId id);
  void unmark_output(GateId id);
  void replace_fanin(GateId sink, std::size_t port, GateId new_driver);
  void rewrite_gate(GateId id, GateType type, const std::vector<GateId>& fanins);
  void rename_gate(GateId id, const std::string& name);
  std::vector<GateId> remove_gates(const std::vector<bool>& dead);

  std::size_t num_gates() const { return names_.size(); }
  const std::string& name(GateId id) const { return names_.at(id); }
  GateType type(GateId id) const { return types_.at(id); }
  const std::vector<GateId>& fanins(GateId id) const { return fanins_.at(id); }
  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  bool is_output(GateId id) const;
  GateId find(const std::string& name) const;

  // (sink, port) pairs in ascending (sink, port) order.
  std::vector<Netlist::FanoutRef> fanouts(GateId id) const;
  std::size_t fanout_gate_count(GateId id) const;
  // The text netlist::write_bench emits for the same netlist; throws the
  // same NetlistError on a combinational loop.
  std::string write_bench() const;

 private:
  void check_arity(GateType type, std::size_t n, const std::string& name) const;

  std::string name_;
  std::vector<std::string> names_;
  std::vector<GateType> types_;
  std::vector<std::vector<GateId>> fanins_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::map<std::string, GateId> index_;
};

}  // namespace muxlink::netlist
