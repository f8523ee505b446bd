#include "synth/synthesis.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/analysis.h"

namespace muxlink::synth {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::kNullGate;
using netlist::Netlist;
using netlist::NetlistError;

namespace {

// A gate's simplified representation: a constant or a node in the new
// netlist.
struct Repr {
  enum class Kind { kConst0, kConst1, kNode } kind = Kind::kNode;
  GateId node = kNullGate;  // valid when kind == kNode

  static Repr constant(bool v) { return {v ? Kind::kConst1 : Kind::kConst0, kNullGate}; }
  static Repr of(GateId n) { return {Kind::kNode, n}; }
  bool is_const() const { return kind != Kind::kNode; }
  bool const_value() const { return kind == Kind::kConst1; }
};

class Rebuilder {
 public:
  Rebuilder(const Netlist& src, const CleanupOptions& opts,
            std::unordered_map<std::string, bool> hardcode)
      : src_(src), opts_(opts), hardcode_(std::move(hardcode)) {
    out_.set_name(src.name());
  }

  Netlist run() {
    reprs_.assign(src_.num_gates(), Repr{});
    for (GateId g : netlist::topological_order(src_)) reprs_[g] = build(g);
    finalize_outputs();
    if (opts_.remove_dead_logic) remove_dead();
    out_.validate();
    return std::move(out_);
  }

 private:
  // Unique constant nodes, created on demand.
  GateId const_node(bool v) {
    GateId& slot = v ? const1_ : const0_;
    if (slot == kNullGate) {
      slot = out_.add_gate(v ? "syn_const1" : "syn_const0",
                           v ? GateType::kConst1 : GateType::kConst0, {});
    }
    return slot;
  }

  GateId materialize(const Repr& r) { return r.is_const() ? const_node(r.const_value()) : r.node; }

  std::string fresh_name(const std::string& base) {
    std::string name = base;
    while (out_.contains(name)) name = base + "_" + std::to_string(suffix_++);
    return name;
  }

  // Emits NOT(x), collapsing double inversion when sweeping is enabled.
  Repr emit_not(const Repr& in, const std::string& base) {
    if (in.is_const()) return Repr::constant(!in.const_value());
    if (opts_.sweep_buffers) {
      const Gate& g = out_.gate(in.node);
      if (g.type == GateType::kNot) return Repr::of(g.fanins[0]);
    }
    return Repr::of(out_.add_gate(fresh_name(base), GateType::kNot, {in.node}));
  }

  Repr emit_gate(GateType type, std::vector<Repr> ins, const std::string& base) {
    std::vector<GateId> fanins;
    fanins.reserve(ins.size());
    for (const Repr& r : ins) fanins.push_back(materialize(r));
    return Repr::of(out_.add_gate(fresh_name(base), type, std::move(fanins)));
  }

  Repr build(GateId g) {
    const Gate& gate = src_.gate(g);
    const std::string base(gate.name);

    if (gate.type == GateType::kInput) {
      if (const auto it = hardcode_.find(base); it != hardcode_.end()) {
        ++hardcoded_;
        return Repr::constant(it->second);
      }
      return Repr::of(out_.add_input(base));
    }
    if (gate.type == GateType::kConst0) return Repr::constant(false);
    if (gate.type == GateType::kConst1) return Repr::constant(true);

    std::vector<Repr> ins;
    ins.reserve(gate.fanins.size());
    for (GateId f : gate.fanins) ins.push_back(reprs_[f]);

    if (!opts_.propagate_constants) {
      // Still honor buffer sweeping on the raw structure.
      if (gate.type == GateType::kBuf && opts_.sweep_buffers) return ins[0];
      if (gate.type == GateType::kNot) return emit_not(ins[0], base);
      return emit_gate(gate.type, std::move(ins), base);
    }

    switch (gate.type) {
      case GateType::kBuf:
        return opts_.sweep_buffers || ins[0].is_const()
                   ? ins[0]
                   : emit_gate(GateType::kBuf, {ins[0]}, base);
      case GateType::kNot:
        return emit_not(ins[0], base);
      case GateType::kMux: {
        const Repr& sel = ins[0];
        const Repr& a = ins[1];
        const Repr& b = ins[2];
        if (sel.is_const()) return sel.const_value() ? b : a;
        if (a.is_const() && b.is_const()) {
          if (a.const_value() == b.const_value()) return a;
          // MUX(s, 0, 1) = s ; MUX(s, 1, 0) = NOT s.
          return a.const_value() ? emit_not(sel, base) : sel;
        }
        if (!a.is_const() && !b.is_const() && a.node == b.node) return a;
        return emit_gate(GateType::kMux, {sel, a, b}, base);
      }
      case GateType::kAnd:
      case GateType::kNand: {
        const bool invert = gate.type == GateType::kNand;
        std::vector<Repr> kept;
        for (const Repr& r : ins) {
          if (r.is_const()) {
            if (!r.const_value()) return Repr::constant(invert);  // dominant 0
          } else {
            kept.push_back(r);
          }
        }
        if (kept.empty()) return Repr::constant(!invert);  // all 1s
        dedupe(kept);
        if (kept.size() == 1) return invert ? emit_not(kept[0], base) : kept[0];
        return emit_gate(invert ? GateType::kNand : GateType::kAnd, std::move(kept), base);
      }
      case GateType::kOr:
      case GateType::kNor: {
        const bool invert = gate.type == GateType::kNor;
        std::vector<Repr> kept;
        for (const Repr& r : ins) {
          if (r.is_const()) {
            if (r.const_value()) return Repr::constant(!invert);  // dominant 1
          } else {
            kept.push_back(r);
          }
        }
        if (kept.empty()) return Repr::constant(invert);  // all 0s
        dedupe(kept);
        if (kept.size() == 1) return invert ? emit_not(kept[0], base) : kept[0];
        return emit_gate(invert ? GateType::kNor : GateType::kOr, std::move(kept), base);
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = gate.type == GateType::kXnor;  // accumulated inversion
        std::vector<Repr> kept;
        for (const Repr& r : ins) {
          if (r.is_const()) {
            parity ^= r.const_value();
          } else {
            kept.push_back(r);
          }
        }
        if (kept.empty()) return Repr::constant(parity);
        if (kept.size() == 1) return parity ? emit_not(kept[0], base) : kept[0];
        return emit_gate(parity ? GateType::kXnor : GateType::kXor, std::move(kept), base);
      }
      default:
        throw NetlistError("cleanup: unexpected gate type");
    }
  }

  // x AND x = x / x OR x = x (keeps first occurrence of each node).
  static void dedupe(std::vector<Repr>& reprs) {
    std::vector<Repr> unique;
    for (const Repr& r : reprs) {
      const bool seen = std::any_of(unique.begin(), unique.end(),
                                    [&](const Repr& u) { return u.node == r.node; });
      if (!seen) unique.push_back(r);
    }
    reprs = std::move(unique);
  }

  void finalize_outputs() {
    if (hardcoded_ != hardcode_.size()) {
      for (const auto& [name, value] : hardcode_) {
        const GateId g = src_.find(name);
        if (g == kNullGate || src_.gate(g).type != GateType::kInput) {
          throw NetlistError("hardcode_input: '" + name + "' is not a primary input of '" +
                             src_.name() + "'");
        }
      }
    }
    for (GateId o : src_.outputs()) {
      GateId node = materialize(reprs_[o]);
      // Keep the original PO name so interfaces stay comparable. Renaming is
      // unsafe when the node is a PI (would change the input interface) or
      // already carries another PO's name — wrap those in a named BUF.
      const std::string_view po_name = src_.gate(o).name;
      if (out_.gate(node).name != po_name) {
        const bool renamable = !out_.contains(po_name) &&
                               out_.gate(node).type != GateType::kInput &&
                               !out_.is_output(node);
        if (renamable) {
          out_.rename_gate(node, po_name);
        } else {
          node = out_.add_gate(fresh_name(std::string(po_name) + "_po"), GateType::kBuf, {node});
          if (out_.gate(node).name != po_name && !out_.contains(po_name)) {
            out_.rename_gate(node, po_name);
          }
        }
      }
      out_.mark_output(node);
    }
  }

  void remove_dead() {
    const auto reach = netlist::reaches_output(out_);
    std::vector<bool> dead(out_.num_gates(), false);
    for (GateId g = 0; g < out_.num_gates(); ++g) {
      dead[g] = !reach[g] && out_.gate(g).type != GateType::kInput;
    }
    // Dead gates may feed other dead gates only; remove in one shot.
    out_.remove_gates(dead);
  }

  const Netlist& src_;
  CleanupOptions opts_;
  std::unordered_map<std::string, bool> hardcode_;
  std::size_t hardcoded_ = 0;

  Netlist out_;
  std::vector<Repr> reprs_;
  GateId const0_ = kNullGate;
  GateId const1_ = kNullGate;
  int suffix_ = 0;
};

}  // namespace

Netlist hardcode_input(const Netlist& nl, std::string_view input_name, bool value) {
  return hardcode_inputs(nl, {{std::string(input_name), value}});
}

Netlist hardcode_inputs(const Netlist& nl,
                        const std::vector<std::pair<std::string, bool>>& values) {
  CleanupOptions opts;  // full cleanup: that is what re-synthesis does
  std::unordered_map<std::string, bool> map;
  for (const auto& [name, v] : values) map[name] = v;
  return Rebuilder(nl, opts, std::move(map)).run();
}

Netlist cleanup(const Netlist& nl, const CleanupOptions& opts) {
  return Rebuilder(nl, opts, {}).run();
}

}  // namespace muxlink::synth
