#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace muxlink::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

Word eval_gate(GateType type, std::span<const Word> fanins) {
  switch (type) {
    case GateType::kInput:
      throw std::logic_error("eval_gate: INPUT has no function");
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~Word{0};
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return ~fanins[0];
    case GateType::kMux:
      // MUX(sel, a, b): sel == 0 -> a.
      return (~fanins[0] & fanins[1]) | (fanins[0] & fanins[2]);
    case GateType::kAnd:
    case GateType::kNand: {
      Word v = ~Word{0};
      for (Word f : fanins) v &= f;
      return type == GateType::kAnd ? v : ~v;
    }
    case GateType::kOr:
    case GateType::kNor: {
      Word v = 0;
      for (Word f : fanins) v |= f;
      return type == GateType::kOr ? v : ~v;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      Word v = 0;
      for (Word f : fanins) v ^= f;
      return type == GateType::kXor ? v : ~v;
    }
  }
  throw std::logic_error("eval_gate: unhandled gate type");
}

Simulator::Simulator(const Netlist& nl) : nl_(&nl), order_(netlist::topological_order(nl)) {}

std::vector<Word> Simulator::run(std::span<const Word> input_words) const {
  const auto& inputs = nl_->inputs();
  if (input_words.size() != inputs.size()) {
    throw std::invalid_argument("Simulator::run: expected " + std::to_string(inputs.size()) +
                                " input words, got " + std::to_string(input_words.size()));
  }
  std::vector<Word> value(nl_->num_gates(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) value[inputs[i]] = input_words[i];

  std::vector<Word> fan;
  for (GateId g : order_) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kInput) continue;
    fan.clear();
    for (GateId f : gate.fanins) fan.push_back(value[f]);
    value[g] = eval_gate(gate.type, fan);
  }
  return value;
}

std::vector<bool> Simulator::run_single(std::span<const bool> inputs) const {
  std::vector<Word> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) words[i] = inputs[i] ? 1 : 0;
  const auto value = run(words);
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (GateId o : nl_->outputs()) out.push_back((value[o] & 1) != 0);
  return out;
}

std::vector<bool> Simulator::run_single(const std::vector<bool>& inputs) const {
  std::vector<Word> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) words[i] = inputs[i] ? 1 : 0;
  const auto value = run(words);
  std::vector<bool> out;
  out.reserve(nl_->outputs().size());
  for (GateId o : nl_->outputs()) out.push_back((value[o] & 1) != 0);
  return out;
}

std::vector<Word> Simulator::output_words(std::span<const Word> gate_words) const {
  std::vector<Word> out;
  out.reserve(nl_->outputs().size());
  for (GateId o : nl_->outputs()) out.push_back(gate_words[o]);
  return out;
}

std::vector<Word> PatternGenerator::next_block(std::size_t num_inputs) {
  std::vector<Word> block(num_inputs);
  for (Word& w : block) w = rng_();
  return block;
}

namespace {

// Shared driver for HD / equivalence: streams pattern blocks through both
// designs with name-matched inputs and reports per-block PO words.
struct PairedRunner {
  const Netlist* a;
  const Netlist* b;
  Simulator sim_a;
  Simulator sim_b;
  // For each of b's inputs: index into a's input block, or -1 -> fixed word.
  std::vector<int> b_source;
  std::vector<Word> b_fixed;
  // PO id in b for each PO of a (name-matched).
  std::vector<GateId> b_output_of_a;

  PairedRunner(const Netlist& na, const Netlist& nb, const HammingOptions& opts)
      : a(&na), b(&nb), sim_a(na), sim_b(nb) {
    std::unordered_map<std::string, std::size_t> a_input_pos;
    for (std::size_t i = 0; i < na.inputs().size(); ++i) {
      a_input_pos.emplace(na.gate(na.inputs()[i]).name, i);
    }
    std::unordered_map<std::string, bool> extra;
    for (const auto& [name, bit] : opts.extra_inputs_b) extra.emplace(name, bit);

    for (GateId ib : nb.inputs()) {
      const std::string name(nb.gate(ib).name);
      if (auto it = a_input_pos.find(name); it != a_input_pos.end()) {
        b_source.push_back(static_cast<int>(it->second));
        b_fixed.push_back(0);
        a_input_pos.erase(it);
      } else {
        b_source.push_back(-1);
        const auto ex = extra.find(name);
        b_fixed.push_back(ex != extra.end() && ex->second ? ~Word{0} : 0);
      }
    }
    if (!a_input_pos.empty()) {
      throw std::invalid_argument("paired simulation: input '" + a_input_pos.begin()->first +
                                  "' of '" + na.name() + "' missing from '" + nb.name() + "'");
    }
    for (GateId oa : na.outputs()) {
      const GateId ob = nb.find(na.gate(oa).name);
      if (ob == netlist::kNullGate || !nb.is_output(ob)) {
        throw std::invalid_argument("paired simulation: output '" + na.gate(oa).name +
                                    "' missing from '" + nb.name() + "'");
      }
      b_output_of_a.push_back(ob);
    }
  }

  // Returns (differing bits, total bits) for one 64-pattern block, with only
  // the lowest `valid_bits` patterns counted. Const — safe to call from many
  // threads at once (the Simulators allocate per-call state).
  std::pair<std::uint64_t, std::uint64_t> diff_block(std::span<const Word> a_inputs,
                                                     int valid_bits) const {
    std::vector<Word> bin(b_source.size());
    for (std::size_t i = 0; i < b_source.size(); ++i) {
      bin[i] = b_source[i] >= 0 ? a_inputs[static_cast<std::size_t>(b_source[i])] : b_fixed[i];
    }
    const auto va = sim_a.run(a_inputs);
    const auto vb = sim_b.run(bin);
    const Word mask = valid_bits >= kWordBits ? ~Word{0} : ((Word{1} << valid_bits) - 1);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < a->outputs().size(); ++i) {
      const Word da = va[a->outputs()[i]];
      const Word db = vb[b_output_of_a[i]];
      diff += static_cast<std::uint64_t>(std::popcount((da ^ db) & mask));
    }
    return {diff, static_cast<std::uint64_t>(valid_bits) * a->outputs().size()};
  }
};

// Materializes the whole pattern stream up front (same blocks, in the same
// seed order, as the old sequential loop) so blocks can be evaluated on the
// thread pool. Diff counts are integers, so the reduction order cannot
// change the result.
std::vector<std::vector<Word>> generate_blocks(std::uint64_t seed, std::size_t num_patterns,
                                               std::size_t num_inputs) {
  PatternGenerator gen(seed);
  std::vector<std::vector<Word>> blocks;
  blocks.reserve((num_patterns + kWordBits - 1) / kWordBits);
  for (std::size_t done = 0; done < num_patterns; done += kWordBits) {
    blocks.push_back(gen.next_block(num_inputs));
  }
  return blocks;
}

}  // namespace

double hamming_distance_percent(const Netlist& a, const Netlist& b, const HammingOptions& opts) {
  MUXLINK_TRACE("sim.hamming");
  MUXLINK_COUNTER_ADD("sim.patterns", static_cast<std::int64_t>(opts.num_patterns));
  const PairedRunner runner(a, b, opts);
  const auto blocks = generate_blocks(opts.seed, opts.num_patterns, a.inputs().size());
  const std::size_t nchunks = common::num_chunks(blocks.size(), 4);
  std::vector<std::uint64_t> diffs(nchunks, 0), totals(nchunks, 0);
  common::parallel_for(blocks.size(), 4,
                       [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                         std::uint64_t d_sum = 0, t_sum = 0;
                         for (std::size_t i = begin; i < end; ++i) {
                           const std::size_t done = i * kWordBits;
                           const int valid = static_cast<int>(
                               std::min<std::size_t>(kWordBits, opts.num_patterns - done));
                           const auto [d, t] = runner.diff_block(blocks[i], valid);
                           d_sum += d;
                           t_sum += t;
                         }
                         diffs[chunk] = d_sum;
                         totals[chunk] = t_sum;
                       });
  std::uint64_t diff = 0, total = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    diff += diffs[c];
    total += totals[c];
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(diff) / static_cast<double>(total);
}

bool functionally_equivalent(const Netlist& a, const Netlist& b, const HammingOptions& opts) {
  MUXLINK_TRACE("sim.equiv");
  MUXLINK_COUNTER_ADD("sim.patterns", static_cast<std::int64_t>(opts.num_patterns));
  const PairedRunner runner(a, b, opts);
  const auto blocks = generate_blocks(opts.seed, opts.num_patterns, a.inputs().size());
  std::atomic<bool> mismatch{false};
  common::parallel_for(blocks.size(), 4,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           if (mismatch.load(std::memory_order_relaxed)) return;
                           if (runner.diff_block(blocks[i], kWordBits).first != 0) {
                             mismatch.store(true, std::memory_order_relaxed);
                             return;
                           }
                         }
                       });
  return !mismatch.load();
}

}  // namespace muxlink::sim
