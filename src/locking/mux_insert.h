// Shared MUX-insertion machinery for the MUX-based locking schemes (D-MUX /
// symmetric / naive / XOR in mux_lock.cpp, SimLL in simll.cpp, deceptive
// locking in deceptive.cpp). The class enforces the invariants every scheme
// relies on (mux_lock.h): no combinational loop is ever created, free-sink
// accounting guarantees no circuit reduction for the schemes that claim it,
// and each key-MUX's two data inputs are equiprobably true/false.
//
// Internal header — scheme implementations only; the public surface is
// mux_lock.h / simll.h / deceptive.h / schemes.h.
#pragma once

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "locking/locked_design.h"
#include "locking/mux_lock.h"
#include "netlist/analysis.h"

namespace muxlink::locking::detail {

class MuxLocker {
 public:
  MuxLocker(const netlist::Netlist& original, const MuxLockOptions& opts, std::string scheme)
      : opts_(opts), rng_(opts.seed) {
    design_.netlist = original;  // deep copy
    design_.scheme = std::move(scheme);
    original_gate_count_ = original.num_gates();
    free_sinks_.resize(original.num_gates());
    for (netlist::GateId g = 0; g < original.num_gates(); ++g) {
      free_sinks_[g] = original.fanouts(g).size();  // ports, original only
    }
    locked_role_.assign(original.num_gates(), false);
  }

  LockedDesign take() && { return std::move(design_); }

  // --- candidate classification -----------------------------------------

  bool is_logic_gate(netlist::GateId g) const {
    const netlist::GateType t = design_.netlist.gate(g).type;
    return g < original_gate_count_ && t != netlist::GateType::kInput &&
           !netlist::is_constant(t);
  }

  // A node is "lockable-MO" when >= 2 of its original sink ports are still
  // free (so locking one leaves a guaranteed connection), "lockable-SO"
  // when exactly 1 is free.
  std::size_t free_sink_count(netlist::GateId g) const { return free_sinks_[g]; }

  bool usable_as_locked_node(netlist::GateId g) const {
    return is_logic_gate(g) && !locked_role_[g] && free_sink_count(g) >= 1;
  }

  // Picks a uniformly random still-free original sink port of `f`.
  std::optional<netlist::Netlist::FanoutRef> pick_free_sink(netlist::GateId f) {
    std::vector<netlist::Netlist::FanoutRef> candidates;
    for (const auto& r : design_.netlist.fanouts(f)) {
      if (r.sink < original_gate_count_ && !locked_port_.contains({r.sink, r.port}) &&
          design_.netlist.gate(r.sink).fanins[r.port] == f) {
        candidates.push_back(r);
      }
    }
    if (candidates.empty()) return std::nullopt;
    std::uniform_int_distribution<std::size_t> pick(0, candidates.size() - 1);
    return candidates[pick(rng_)];
  }

  // True iff wiring `driver` into gate `sink` would create a combinational
  // loop in the current (partially locked) netlist.
  bool would_loop(netlist::GateId driver, netlist::GateId sink) const {
    return driver == sink || netlist::in_transitive_fanout(design_.netlist, sink, driver);
  }

  // --- primitives ----------------------------------------------------------

  int new_key_bit() {
    const int bit = static_cast<int>(design_.key.size());
    std::uniform_int_distribution<int> coin(0, 1);
    design_.key.push_back(static_cast<std::uint8_t>(coin(rng_)));
    const std::string name = kKeyInputPrefix + std::to_string(bit);
    design_.key_input_names.push_back(name);
    key_input_gate_.push_back(design_.netlist.add_input(name));
    return bit;
  }

  // Inserts MUX(key, ...) in front of sink.port. With key value v, the true
  // driver sits on the input selected by v (input a when v=0, b when v=1).
  std::size_t insert_mux(int key_bit, netlist::GateId true_driver, netlist::GateId false_driver,
                         netlist::GateId sink, std::uint32_t port) {
    const bool v = design_.key[key_bit] != 0;
    const netlist::GateId kin = key_input_gate_[key_bit];
    const netlist::GateId a = v ? false_driver : true_driver;
    const netlist::GateId b = v ? true_driver : false_driver;
    const netlist::GateId mux = design_.netlist.add_gate(
        "keymux" + std::to_string(design_.key_gates.size()), netlist::GateType::kMux,
        {kin, a, b});
    design_.netlist.replace_fanin(sink, port, mux);
    locked_port_.insert({sink, port});
    // The true driver loses one free sink; the decoy loses none. Drivers
    // added during locking (deceptive BUF copies) are not tracked.
    consume_free_sink(true_driver);
    design_.key_gates.push_back(KeyGate{mux, key_bit, true_driver, false_driver, sink, port});
    return design_.key_gates.size() - 1;
  }

  // Charges one free-sink port to `g` (no-op for gates added during
  // locking). Used when a locked port's original driver is not the MUX's
  // "true driver" — e.g. a deceptive decoy where the correct key routes the
  // inserted BUF copy rather than the original wire.
  void consume_free_sink(netlist::GateId g) {
    if (g < free_sinks_.size() && free_sinks_[g] > 0) --free_sinks_[g];
  }

  void mark_locked(netlist::GateId g) { locked_role_[g] = true; }

  // --- random selection ----------------------------------------------------

  // Uniform random pair of distinct logic gates satisfying `pred` on each.
  template <typename Pred>
  std::optional<std::pair<netlist::GateId, netlist::GateId>> pick_pair(Pred pred) {
    std::vector<netlist::GateId> pool;
    for (netlist::GateId g = 0; g < original_gate_count_; ++g) {
      if (pred(g)) pool.push_back(g);
    }
    if (pool.size() < 2) return std::nullopt;
    std::shuffle(pool.begin(), pool.end(), rng_);
    return std::make_pair(pool[0], pool[1]);
  }

  LockedDesign& design() { return design_; }
  std::mt19937_64& rng() { return rng_; }
  const MuxLockOptions& options() const { return opts_; }
  netlist::GateId original_gate_count() const { return original_gate_count_; }

 private:
  MuxLockOptions opts_;
  std::mt19937_64 rng_;
  LockedDesign design_;
  netlist::GateId original_gate_count_ = 0;
  std::vector<std::size_t> free_sinks_;       // unlocked original sink ports
  std::vector<bool> locked_role_;             // gate already used as f/g in a locality
  std::set<std::pair<netlist::GateId, std::uint32_t>> locked_port_;
  std::vector<netlist::GateId> key_input_gate_;
};

// One D-MUX locality (eD-MUX policy over S1-S4 when `enhanced`, plain S4
// otherwise). Returns the number of key bits consumed, or 0 when no viable
// locality was found in `attempts` random draws.
std::size_t lock_one_dmux_locality(MuxLocker& lk, std::size_t bits_remaining, bool enhanced,
                                   int attempts = 256);

// Inserts the S4 twin-MUX shape for a specific pair {fi, fj}: one key bit,
// two cross-wired MUXes, so a wrong key swaps the two wires and never
// disconnects either node. Returns false (consuming nothing) when the pair
// has no viable sinks or would create a loop.
bool insert_s4_pair(MuxLocker& lk, netlist::GateId fi, netlist::GateId fj, Strategy strategy);

// Shared partial-key check: throws unless key_bits fit or allow_partial.
void check_result(const LockedDesign& d, const MuxLockOptions& opts);

}  // namespace muxlink::locking::detail
