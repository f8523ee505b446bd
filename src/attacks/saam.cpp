#include "attacks/saam.h"

#include "attacks/key_trace.h"

namespace muxlink::attacks {

using locking::KeyBit;
using netlist::GateId;
using netlist::Netlist;

std::vector<KeyBit> saam_attack(const Netlist& locked) {
  const auto keys = find_key_inputs(locked);
  const auto muxes = trace_key_muxes(locked);

  auto orphaned_if_deselected = [&](GateId driver, GateId mux) {
    // Loads of `driver` other than this MUX: fanout ports + PO marking.
    std::size_t other_loads = locked.is_output(driver) ? 1 : 0;
    for (const auto& ref : locked.fanouts(driver)) {
      if (ref.sink != mux) ++other_loads;
    }
    return other_loads == 0;
  };

  std::vector<KeyBit> verdict(keys.size(), KeyBit::kUnknown);
  for (const TracedMux& tm : muxes) {
    const bool a_orphan = orphaned_if_deselected(tm.input_a, tm.mux);
    const bool b_orphan = orphaned_if_deselected(tm.input_b, tm.mux);
    KeyBit bit = KeyBit::kUnknown;
    if (a_orphan && !b_orphan) {
      bit = KeyBit::kZero;  // must keep input a connected
    } else if (b_orphan && !a_orphan) {
      bit = KeyBit::kOne;
    }
    if (bit == KeyBit::kUnknown) continue;
    KeyBit& slot = verdict[static_cast<std::size_t>(tm.key_bit)];
    if (slot == KeyBit::kUnknown) {
      slot = bit;
    } else if (slot != bit) {
      slot = KeyBit::kUnknown;  // conflicting evidence from the S4 pair
    }
  }
  return verdict;
}

}  // namespace muxlink::attacks
