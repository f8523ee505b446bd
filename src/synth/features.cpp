#include "synth/features.h"

#include <algorithm>

#include "netlist/analysis.h"

namespace muxlink::synth {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

double gate_area(GateType type, std::size_t fanin_count) {
  // Unit-gate-equivalent weights of a generic standard-cell library; wide
  // gates pay one extra stage per additional input.
  double base;
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return 0.0;
    case GateType::kBuf:
      base = 1.0;
      break;
    case GateType::kNot:
      base = 0.75;
      break;
    case GateType::kNand:
    case GateType::kNor:
      base = 1.0;
      break;
    case GateType::kAnd:
    case GateType::kOr:
      base = 1.25;
      break;
    case GateType::kXor:
    case GateType::kXnor:
      base = 2.0;
      break;
    case GateType::kMux:
      base = 2.5;
      break;
    default:
      base = 1.0;
  }
  const double extra = fanin_count > 2 ? 0.5 * static_cast<double>(fanin_count - 2) : 0.0;
  return base + extra;
}

std::vector<double> signal_probabilities(const Netlist& nl) {
  std::vector<double> p(nl.num_gates(), 0.5);
  for (GateId g : netlist::topological_order(nl)) {
    const auto& gate = nl.gate(g);
    switch (gate.type) {
      case GateType::kInput:
        p[g] = 0.5;
        break;
      case GateType::kConst0:
        p[g] = 0.0;
        break;
      case GateType::kConst1:
        p[g] = 1.0;
        break;
      case GateType::kBuf:
        p[g] = p[gate.fanins[0]];
        break;
      case GateType::kNot:
        p[g] = 1.0 - p[gate.fanins[0]];
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        double v = 1.0;
        for (GateId f : gate.fanins) v *= p[f];
        p[g] = gate.type == GateType::kAnd ? v : 1.0 - v;
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        double v = 1.0;
        for (GateId f : gate.fanins) v *= 1.0 - p[f];
        p[g] = gate.type == GateType::kOr ? 1.0 - v : v;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        double v = 0.0;  // P(parity over processed fanins = 1)
        for (GateId f : gate.fanins) v = v + p[f] - 2.0 * v * p[f];
        p[g] = gate.type == GateType::kXor ? v : 1.0 - v;
        break;
      }
      case GateType::kMux: {
        const double ps = p[gate.fanins[0]];
        p[g] = (1.0 - ps) * p[gate.fanins[1]] + ps * p[gate.fanins[2]];
        break;
      }
    }
  }
  return p;
}

Features extract_features(const Netlist& nl) {
  Features f;
  const auto probs = signal_probabilities(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const auto& gate = nl.gate(g);
    ++f.count_by_type[static_cast<std::size_t>(gate.type)];
    const bool is_logic =
        gate.type != GateType::kInput && !netlist::is_constant(gate.type);
    if (is_logic) ++f.num_logic_gates;
    f.area += gate_area(gate.type, gate.fanins.size());
    const double load =
        static_cast<double>(nl.fanouts(g).size()) + (nl.is_output(g) ? 1.0 : 0.0);
    if (load > 0.0) ++f.num_nets;
    f.switching_power += 2.0 * probs[g] * (1.0 - probs[g]) * load;
  }
  const auto levels = netlist::logic_levels(nl);
  f.depth = levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
  return f;
}

std::vector<double> Features::to_vector() const {
  std::vector<double> v;
  v.reserve(netlist::kNumGateTypes + 5);
  v.push_back(static_cast<double>(num_logic_gates));
  v.push_back(area);
  v.push_back(switching_power);
  v.push_back(static_cast<double>(depth));
  v.push_back(static_cast<double>(num_nets));
  for (std::size_t t = 0; t < count_by_type.size(); ++t) {
    v.push_back(static_cast<double>(count_by_type[t]));
  }
  return v;
}

std::vector<std::string> Features::vector_names() {
  std::vector<std::string> names{"gates", "area", "power", "depth", "nets"};
  for (int t = 0; t < netlist::kNumGateTypes; ++t) {
    names.emplace_back(netlist::to_string(static_cast<netlist::GateType>(t)));
  }
  return names;
}

}  // namespace muxlink::synth
