#include "netlist/analysis.h"

#include <algorithm>
#include <sstream>

namespace muxlink::netlist {

std::vector<GateId> topological_order(const Netlist& nl) {
  const std::size_t n = nl.num_gates();
  std::vector<std::uint32_t> pending(n, 0);
  for (GateId g = 0; g < n; ++g) {
    pending[g] = static_cast<std::uint32_t>(nl.gate(g).fanins.size());
  }
  std::vector<GateId> ready;
  ready.reserve(n);
  for (GateId g = 0; g < n; ++g) {
    if (pending[g] == 0) ready.push_back(g);
  }
  std::vector<GateId> order;
  order.reserve(n);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId g = ready[head];
    order.push_back(g);
    for (const Netlist::FanoutRef& r : nl.fanouts(g)) {
      if (--pending[r.sink] == 0) ready.push_back(r.sink);
    }
  }
  if (order.size() != n) {
    throw NetlistError("topological_order: combinational loop detected in '" + nl.name() + "'");
  }
  return order;
}

bool has_combinational_loop(const Netlist& nl) {
  try {
    (void)topological_order(nl);
    return false;
  } catch (const NetlistError&) {
    return true;
  }
}

bool in_transitive_fanout(const Netlist& nl, GateId root, GateId descendant) {
  if (root == descendant) return false;
  std::vector<bool> seen(nl.num_gates(), false);
  std::vector<GateId> stack{root};
  seen[root] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const Netlist::FanoutRef& r : nl.fanouts(g)) {
      if (r.sink == descendant) return true;
      if (!seen[r.sink]) {
        seen[r.sink] = true;
        stack.push_back(r.sink);
      }
    }
  }
  return false;
}

std::vector<bool> fanin_cone(const Netlist& nl, GateId root) {
  std::vector<bool> in_cone(nl.num_gates(), false);
  std::vector<GateId> stack{root};
  in_cone[root] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : nl.gate(g).fanins) {
      if (!in_cone[f]) {
        in_cone[f] = true;
        stack.push_back(f);
      }
    }
  }
  return in_cone;
}

std::vector<bool> fanout_cone(const Netlist& nl, GateId root) {
  std::vector<bool> in_cone(nl.num_gates(), false);
  std::vector<GateId> stack{root};
  in_cone[root] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const Netlist::FanoutRef& r : nl.fanouts(g)) {
      if (!in_cone[r.sink]) {
        in_cone[r.sink] = true;
        stack.push_back(r.sink);
      }
    }
  }
  return in_cone;
}

std::vector<bool> reaches_output(const Netlist& nl) {
  std::vector<bool> reaches(nl.num_gates(), false);
  std::vector<GateId> stack;
  for (GateId o : nl.outputs()) {
    if (!reaches[o]) {
      reaches[o] = true;
      stack.push_back(o);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : nl.gate(g).fanins) {
      if (!reaches[f]) {
        reaches[f] = true;
        stack.push_back(f);
      }
    }
  }
  return reaches;
}

std::vector<int> logic_levels(const Netlist& nl) {
  std::vector<int> level(nl.num_gates(), 0);
  for (GateId g : topological_order(nl)) {
    int lvl = 0;
    for (GateId f : nl.gate(g).fanins) lvl = std::max(lvl, level[f] + 1);
    level[g] = lvl;
  }
  return level;
}

NetlistStats compute_stats(const Netlist& nl) {
  NetlistStats s;
  s.num_gates = nl.num_gates();
  s.num_inputs = nl.inputs().size();
  s.num_outputs = nl.outputs().size();
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const GateType t = nl.gate(g).type;
    ++s.count_by_type[static_cast<std::size_t>(t)];
    if (t != GateType::kInput && !is_constant(t)) {
      ++s.num_logic_gates;
      const std::size_t sinks = nl.fanout_gate_count(g);
      if (sinks >= 2) {
        ++s.multi_output_gates;
      } else if (sinks == 1) {
        ++s.single_output_gates;
      }
    }
  }
  const auto levels = logic_levels(nl);
  s.depth = levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
  return s;
}

std::string format_stats(const NetlistStats& s) {
  std::ostringstream os;
  os << "gates=" << s.num_gates << " (logic=" << s.num_logic_gates << ")"
     << " inputs=" << s.num_inputs << " outputs=" << s.num_outputs
     << " depth=" << s.depth << "\n  by type:";
  for (int t = 0; t < kNumGateTypes; ++t) {
    if (s.count_by_type[t] > 0) {
      os << ' ' << to_string(static_cast<GateType>(t)) << '=' << s.count_by_type[t];
    }
  }
  os << "\n  multi-output=" << s.multi_output_gates
     << " single-output=" << s.single_output_gates << "\n";
  return os.str();
}

}  // namespace muxlink::netlist
