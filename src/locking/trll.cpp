#include "locking/trll.h"

#include <algorithm>
#include <optional>
#include <random>

#include "netlist/analysis.h"

namespace muxlink::locking {

using netlist::GateId;
using netlist::GateType;
using netlist::kNullGate;
using netlist::Netlist;

namespace {

// TRLL insertion shapes. The key-bit VALUE follows from the randomly chosen
// shape (that is the "truly random" part): an attacker seeing the residue
// cannot invert the choice because every observable shape is produced by
// both key values at matched rates on inverter-rich (RNT-style) designs:
//   * plain XOR (k=0)   vs  inverter replaced by XOR (k=1) — identical;
//   * plain XNOR (k=1)  vs  inverter replaced by XNOR (k=0) — identical;
//   * XOR+INV (k=1)     vs  plain XOR feeding a natural inverter (k=0) —
//     matched by weighting the +INV shapes with the circuit's own
//     inverter-sink rate AND adding before-inverter-targeted insertions of
//     the opposite key value, so the "key gate feeding an inverter"
//     observation carries equal mass for both keys.
// On single-type (ANT) designs the replace options vanish and the mapping
// becomes deterministic — TRLL degrades to conventional XOR locking and
// fails the ANT, exactly as §II-B states.
enum class Shape {
  kPlainXor,        // k = 0
  kPlainXnor,       // k = 1
  kReplaceInvXor,   // k = 1
  kReplaceInvXnor,  // k = 0
  kXorInv,          // k = 1 (XOR + inserted inverter)
  kXnorInv,         // k = 0
  kXorBeforeInv,    // k = 0 (plain XOR targeted at a wire that feeds an inverter)
  kXnorBeforeInv,   // k = 1
};

bool key_value_of(Shape s) {
  switch (s) {
    case Shape::kPlainXor:
    case Shape::kReplaceInvXnor:
    case Shape::kXnorInv:
    case Shape::kXorBeforeInv:
      return false;
    default:
      return true;
  }
}

}  // namespace

LockedDesign lock_trll(const Netlist& original, const MuxLockOptions& opts) {
  std::mt19937_64 rng(opts.seed);
  LockedDesign d;
  d.netlist = original;
  d.scheme = "trll";
  Netlist& nl = d.netlist;
  const GateId original_count = static_cast<GateId>(original.num_gates());

  // Inverters eligible for the replace shapes: an inserted key gate always
  // has a logic-gate data input and exactly one sink, so only inverters with
  // the same signature are replaceable — otherwise the residue (PI fanin or
  // multi-fanout key gate) would identify the shape and thus the key bit.
  auto replace_eligible = [&](GateId g) {
    if (original.gate(g).type != GateType::kNot) return false;
    if (original.fanouts(g).size() != 1) return false;
    const GateType ft = original.gate(original.gate(g).fanins[0]).type;
    return ft != GateType::kInput && !netlist::is_constant(ft);
  };
  std::vector<GateId> inverters;
  for (GateId g = 0; g < original_count; ++g) {
    if (replace_eligible(g)) inverters.push_back(g);
  }
  std::shuffle(inverters.begin(), inverters.end(), rng);

  struct Wire {
    GateId driver, sink;
    std::uint32_t port;
  };
  // Plain/+INV insertions avoid inverter sinks entirely; wires feeding a
  // single-fanout inverter are reserved for the targeted before-INV shapes.
  // This keeps every observable "key gate feeds an inverter" case produced
  // by both key values at the same rate.
  std::vector<Wire> wires;        // sink is not an inverter
  std::vector<Wire> inv_wires;    // sink is a single-fanout inverter
  std::size_t all_wires = 0;
  for (GateId g = 0; g < original_count; ++g) {
    const auto& gate = original.gate(g);
    for (std::uint32_t p = 0; p < gate.fanins.size(); ++p) {
      const GateId f = gate.fanins[p];
      const GateType ft = original.gate(f).type;
      if (ft == GateType::kInput || netlist::is_constant(ft)) continue;
      ++all_wires;
      if (gate.type == GateType::kNot) {
        if (original.fanouts(g).size() == 1) inv_wires.push_back({f, g, p});
      } else {
        wires.push_back({f, g, p});
      }
    }
  }
  std::shuffle(wires.begin(), wires.end(), rng);
  std::shuffle(inv_wires.begin(), inv_wires.end(), rng);
  // Weight of the +INV and before-INV shapes: the circuit's own
  // (single-fanout) inverter-sink rate.
  const double inv_rate =
      all_wires == 0 ? 0.0
                     : static_cast<double>(inv_wires.size()) / static_cast<double>(all_wires);

  std::size_t next_wire = 0;
  std::vector<bool> gate_used(original_count, false);
  auto take_wire = [&]() -> std::optional<Wire> {
    while (next_wire < wires.size()) {
      const Wire w = wires[next_wire++];
      if (!gate_used[w.driver] && !gate_used[w.sink]) {
        gate_used[w.driver] = true;
        gate_used[w.sink] = true;
        return w;
      }
    }
    return std::nullopt;
  };
  std::size_t next_inv_wire = 0;
  auto take_wire_into_inverter = [&]() -> std::optional<Wire> {
    while (next_inv_wire < inv_wires.size()) {
      const Wire w = inv_wires[next_inv_wire++];
      if (!gate_used[w.driver] && !gate_used[w.sink]) {
        gate_used[w.driver] = true;
        gate_used[w.sink] = true;
        return w;
      }
    }
    return std::nullopt;
  };
  auto take_inverter = [&]() -> GateId {
    while (!inverters.empty()) {
      const GateId g = inverters.back();
      inverters.pop_back();
      if (!gate_used[g]) return g;
    }
    return kNullGate;
  };

  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int stalls = 0;  // consecutive resamples without placing a key gate
  while (d.key.size() < opts.key_bits && stalls < 256) {
    ++stalls;
    const int bit = static_cast<int>(d.key.size());
    // Sample a shape by weight; replace shapes need a free inverter.
    const bool have_inverter =
        std::any_of(inverters.begin(), inverters.end(), [&](GateId g) { return !gate_used[g]; });
    struct Option {
      Shape shape;
      double weight;
    };
    std::vector<Option> options{{Shape::kPlainXor, 1.0},
                                {Shape::kPlainXnor, 1.0},
                                {Shape::kXorInv, inv_rate},
                                {Shape::kXnorInv, inv_rate}};
    if (have_inverter) {
      options.push_back({Shape::kReplaceInvXor, 1.0});
      options.push_back({Shape::kReplaceInvXnor, 1.0});
      options.push_back({Shape::kXorBeforeInv, inv_rate});
      options.push_back({Shape::kXnorBeforeInv, inv_rate});
    }
    double total = 0.0;
    for (const Option& o : options) total += o.weight;
    double roll = unit(rng) * total;
    Shape shape = options.front().shape;
    for (const Option& o : options) {
      if (roll < o.weight) {
        shape = o.shape;
        break;
      }
      roll -= o.weight;
    }

    const bool value = key_value_of(shape);
    const std::string kname = kKeyInputPrefix + std::to_string(bit);

    if (shape == Shape::kReplaceInvXor || shape == Shape::kReplaceInvXnor) {
      const GateId inv = take_inverter();
      if (inv == kNullGate) continue;  // raced away; resample
      const GateId kin = nl.add_input(kname);
      d.key.push_back(value ? 1 : 0);
      d.key_input_names.push_back(kname);
      const GateId x = nl.gate(inv).fanins[0];
      // NOT(x) == XOR(x, 1) == XNOR(x, 0).
      nl.rewrite_gate(inv, shape == Shape::kReplaceInvXor ? GateType::kXor : GateType::kXnor,
                      {x, kin});
      gate_used[inv] = true;
      d.key_gates.push_back(KeyGate{inv, bit, x, kNullGate, kNullGate, 0});
      d.localities.push_back({Strategy::kXor, {d.key_gates.size() - 1}});
      stalls = 0;
      continue;
    }

    const bool before_inv = shape == Shape::kXorBeforeInv || shape == Shape::kXnorBeforeInv;
    const auto w = before_inv ? take_wire_into_inverter() : take_wire();
    if (!w) {
      if (before_inv) continue;  // no free inverter-fed wire left; resample
      break;
    }
    const GateId kin = nl.add_input(kname);
    d.key.push_back(value ? 1 : 0);
    d.key_input_names.push_back(kname);
    const bool xnor = shape == Shape::kPlainXnor || shape == Shape::kXnorInv ||
                      shape == Shape::kXnorBeforeInv;
    const GateId kx = nl.add_gate("keyxor" + std::to_string(bit),
                                  xnor ? GateType::kXnor : GateType::kXor, {w->driver, kin});
    GateId out = kx;
    if (shape == Shape::kXorInv || shape == Shape::kXnorInv) {
      out = nl.add_gate("keyinv" + std::to_string(bit), GateType::kNot, {kx});
    }
    nl.replace_fanin(w->sink, w->port, out);
    d.key_gates.push_back(KeyGate{kx, bit, w->driver, kNullGate, w->sink, w->port});
    d.localities.push_back({Strategy::kXor, {d.key_gates.size() - 1}});
    stalls = 0;
  }

  if (d.key.size() < opts.key_bits && !opts.allow_partial) {
    throw std::invalid_argument("lock_trll: only " + std::to_string(d.key.size()) + " of " +
                                std::to_string(opts.key_bits) + " key bits fit");
  }
  nl.validate();
  return d;
}

}  // namespace muxlink::locking
