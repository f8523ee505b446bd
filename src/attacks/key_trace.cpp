#include "attacks/key_trace.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <stdexcept>

#include "locking/locked_design.h"

namespace muxlink::attacks {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistError;

std::vector<KeyInput> find_key_inputs(const Netlist& locked) {
  const std::string prefix = locking::kKeyInputPrefix;
  std::vector<KeyInput> keys;
  for (GateId g : locked.inputs()) {
    const auto name = locked.gate(g).name;
    if (name.rfind(prefix, 0) != 0) continue;
    int bit = -1;
    const char* begin = name.data() + prefix.size();
    const char* end = name.data() + name.size();
    const auto [ptr, ec] = std::from_chars(begin, end, bit);
    if (ec != std::errc{} || ptr != end || bit < 0) {
      throw NetlistError("malformed key input name '" + name + "'");
    }
    keys.push_back(KeyInput{bit, g, std::string(name)});
  }
  std::sort(keys.begin(), keys.end(),
            [](const KeyInput& a, const KeyInput& b) { return a.bit < b.bit; });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].bit != static_cast<int>(i)) {
      throw NetlistError("key input indices are not contiguous from 0");
    }
  }
  return keys;
}

std::vector<TracedMux> trace_key_muxes(const Netlist& locked) {
  const auto keys = find_key_inputs(locked);
  std::vector<TracedMux> traced;
  for (const KeyInput& k : keys) {
    for (const auto& ref : locked.fanouts(k.gate)) {
      const auto& gate = locked.gate(ref.sink);
      if (gate.type != GateType::kMux || ref.port != 0) {
        throw NetlistError("key input '" + k.name + "' drives a non-select pin of '" +
                           gate.name + "'");
      }
      TracedMux tm;
      tm.mux = ref.sink;
      tm.key_bit = k.bit;
      tm.input_a = gate.fanins[1];
      tm.input_b = gate.fanins[2];
      const auto mux_out = locked.fanouts(tm.mux);
      if (mux_out.size() != 1) {
        throw NetlistError("key MUX '" + gate.name + "' must drive exactly one sink");
      }
      tm.sink = mux_out[0].sink;
      tm.sink_port = mux_out[0].port;
      traced.push_back(tm);
    }
  }
  return traced;
}

std::vector<TracedLocality> group_localities(const Netlist& locked,
                                             const std::vector<TracedMux>& muxes) {
  (void)locked;
  std::map<int, std::vector<std::size_t>> by_bit;
  for (std::size_t i = 0; i < muxes.size(); ++i) by_bit[muxes[i].key_bit].push_back(i);

  std::vector<TracedLocality> localities;
  std::vector<std::size_t> singles;
  for (const auto& [bit, list] : by_bit) {
    if (list.size() == 2) {
      localities.push_back({TracedLocality::Kind::kShared, list});  // S4
    } else if (list.size() == 1) {
      singles.push_back(list[0]);
    } else {
      throw NetlistError("key bit " + std::to_string(bit) + " drives " +
                         std::to_string(list.size()) + " MUXes (unsupported shape)");
    }
  }

  // Pair lone MUXes that share the same unordered data-input set (S1/S5).
  std::map<std::pair<GateId, GateId>, std::vector<std::size_t>> by_inputs;
  for (std::size_t idx : singles) {
    const auto key = std::minmax(muxes[idx].input_a, muxes[idx].input_b);
    by_inputs[{key.first, key.second}].push_back(idx);
  }
  for (const auto& [inputs, list] : by_inputs) {
    if (list.size() == 2) {
      localities.push_back({TracedLocality::Kind::kPaired, list});
    } else {
      for (std::size_t idx : list) {
        localities.push_back({TracedLocality::Kind::kSingle, {idx}});
      }
    }
  }
  return localities;
}

namespace {

// Depth-first expansion of one key-MUX tree. `value` selects input_a (0) or
// input_b (1); descending into another key MUX accumulates its assignment,
// any other gate terminates the path as a candidate leaf.
void expand_routing(const std::vector<TracedMux>& muxes,
                    const std::map<GateId, std::size_t>& mux_of_gate, std::size_t idx,
                    std::vector<std::pair<int, int>>& path, std::vector<RoutingCandidate>& out) {
  const TracedMux& m = muxes[idx];
  for (int value = 0; value <= 1; ++value) {
    bool conflict = false;
    bool duplicate = false;
    for (const auto& [bit, v] : path) {
      if (bit != m.key_bit) continue;
      (v == value ? duplicate : conflict) = true;
    }
    if (conflict) continue;  // infeasible under any single key
    if (!duplicate) path.emplace_back(m.key_bit, value);
    const GateId child = value == 0 ? m.input_a : m.input_b;
    const auto it = mux_of_gate.find(child);
    if (it != mux_of_gate.end()) {
      expand_routing(muxes, mux_of_gate, it->second, path, out);
    } else {
      out.push_back(RoutingCandidate{child, path});
    }
    if (!duplicate) path.pop_back();
  }
}

}  // namespace

std::vector<RoutingQuery> trace_routing_queries(const Netlist& locked,
                                                const std::vector<TracedMux>& muxes) {
  (void)locked;
  std::map<GateId, std::size_t> mux_of_gate;
  for (std::size_t i = 0; i < muxes.size(); ++i) mux_of_gate[muxes[i].mux] = i;

  std::vector<RoutingQuery> queries;
  for (std::size_t i = 0; i < muxes.size(); ++i) {
    // Roots are MUXes whose sink is not another key MUX; inner tree nodes
    // are reached through their parent's expansion instead.
    if (mux_of_gate.contains(muxes[i].sink)) continue;
    RoutingQuery q;
    q.root_mux = muxes[i].mux;
    q.sink = muxes[i].sink;
    q.sink_port = muxes[i].sink_port;
    std::vector<std::pair<int, int>> path;
    expand_routing(muxes, mux_of_gate, i, path, q.candidates);
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace muxlink::attacks
