#include <optional>
#include "circuitgen/generator.h"

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>

#include "netlist/analysis.h"

namespace muxlink::circuitgen {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

struct TypeSampler {
  std::array<GateType, 8> types{GateType::kAnd, GateType::kNand, GateType::kOr,
                                GateType::kNor, GateType::kXor, GateType::kXnor,
                                GateType::kNot, GateType::kBuf};
  std::array<double, 8> cumulative{};

  explicit TypeSampler(const GateMix& mix) {
    const std::array<double, 8> w{mix.and_w, mix.nand_w, mix.or_w,  mix.nor_w,
                                  mix.xor_w, mix.xnor_w, mix.not_w, mix.buf_w};
    double total = 0;
    for (double x : w) {
      if (x < 0) throw std::invalid_argument("gate mix weights must be non-negative");
      total += x;
    }
    if (total <= 0) throw std::invalid_argument("gate mix must have a positive weight");
    double acc = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      acc += w[i] / total;
      cumulative[i] = acc;
    }
    cumulative.back() = 1.0;
  }

  GateType sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (u <= cumulative[i]) return types[i];
    }
    return types.back();
  }
};

// Draws a driver id: recent-window with probability `locality`, else uniform.
GateId pick_source(std::mt19937_64& rng, const std::vector<GateId>& pool, double locality,
                   std::size_t window) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  if (pool.size() > window && unit(rng) < locality) {
    std::uniform_int_distribution<std::size_t> recent(pool.size() - window, pool.size() - 1);
    return pool[recent(rng)];
  }
  std::uniform_int_distribution<std::size_t> any(0, pool.size() - 1);
  return pool[any(rng)];
}

Netlist generate_impl(const CircuitSpec& spec, std::optional<GateType> forced_type) {
  if (spec.num_inputs < 2) throw std::invalid_argument("generator needs >= 2 inputs");
  if (spec.num_outputs < 1) throw std::invalid_argument("generator needs >= 1 output");
  if (spec.num_gates < spec.num_outputs) {
    throw std::invalid_argument("generator needs num_gates >= num_outputs");
  }

  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const TypeSampler sampler(spec.mix);

  CircuitSpec cfg = spec;  // resolve the automatic window
  if (cfg.locality_window == 0) {
    cfg.locality_window = std::clamp<std::size_t>(cfg.num_gates / 50, 12, 64);
  }

  Netlist nl(spec.name);
  std::vector<GateId> pool;  // candidate drivers, in creation order
  pool.reserve(spec.num_inputs + spec.num_gates);
  for (std::size_t i = 0; i < spec.num_inputs; ++i) {
    pool.push_back(nl.add_input("G" + std::to_string(i)));
  }

  // Reserve a slice of the gate budget for collector gates that absorb
  // dangling outputs at the end (sized generously; unused budget is filled
  // with ordinary gates afterwards).
  const std::size_t reserve = std::max<std::size_t>(4, spec.num_gates / 10);
  const std::size_t main_budget = spec.num_gates > reserve ? spec.num_gates - reserve : 1;

  std::size_t next_id = 0;
  auto fresh_name = [&] { return "n" + std::to_string(next_id++); };

  auto add_random_gate = [&] {
    GateType type = forced_type ? *forced_type : sampler.sample(rng);
    std::size_t arity;
    if (type == GateType::kNot || type == GateType::kBuf) {
      arity = 1;
    } else {
      arity = unit(rng) < spec.wide_gate_prob ? 3 : 2;
    }
    std::vector<GateId> fanins;
    while (fanins.size() < arity) {
      const GateId f = pick_source(rng, pool, cfg.locality, cfg.locality_window);
      if (std::find(fanins.begin(), fanins.end(), f) == fanins.end()) fanins.push_back(f);
      // Tiny pools can stall on distinctness; accept duplicates then.
      if (fanins.size() < arity && pool.size() <= arity) fanins.push_back(f);
    }
    pool.push_back(nl.add_gate(fresh_name(), type, std::move(fanins)));
  };

  // Motif library: each template gate takes inputs either from an earlier
  // template gate (internal, creates the reconvergent diamonds of real
  // operator logic) or from the surrounding circuit (external).
  struct MotifGate {
    GateType type;
    std::vector<int> src;  // >= 0: template index; -1: external pick
  };
  std::vector<std::vector<MotifGate>> motifs;
  if (spec.motif_fraction > 0.0) {
    if (spec.motif_size_min < 2 || spec.motif_size_max < spec.motif_size_min) {
      throw std::invalid_argument("generator: bad motif size range");
    }
    std::uniform_int_distribution<int> size_pick(spec.motif_size_min, spec.motif_size_max);
    for (int m = 0; m < spec.num_motifs; ++m) {
      const int size = size_pick(rng);
      std::vector<MotifGate> motif;
      for (int i = 0; i < size; ++i) {
        GateType type = forced_type ? *forced_type : sampler.sample(rng);
        const std::size_t arity =
            (type == GateType::kNot || type == GateType::kBuf)
                ? 1
                : (unit(rng) < spec.wide_gate_prob ? 3 : 2);
        MotifGate g{type, {}};
        for (std::size_t a = 0; a < arity; ++a) {
          if (i > 0 && unit(rng) < 0.6) {
            g.src.push_back(static_cast<int>(rng() % static_cast<std::size_t>(i)));
          } else {
            g.src.push_back(-1);
          }
        }
        motif.push_back(std::move(g));
      }
      motifs.push_back(std::move(motif));
    }
  }

  auto stamp_motif = [&](const std::vector<MotifGate>& motif) {
    std::vector<GateId> instance;
    instance.reserve(motif.size());
    for (const MotifGate& mg : motif) {
      std::vector<GateId> fanins;
      for (int s : mg.src) {
        fanins.push_back(s >= 0 ? instance[static_cast<std::size_t>(s)]
                                : pick_source(rng, pool, cfg.locality, cfg.locality_window));
      }
      instance.push_back(nl.add_gate(fresh_name(), mg.type, std::move(fanins)));
    }
    for (GateId g : instance) pool.push_back(g);
    return instance.size();
  };

  for (std::size_t g = 0; g < main_budget;) {
    if (!motifs.empty() && unit(rng) < spec.motif_fraction) {
      const auto& motif = motifs[rng() % motifs.size()];
      if (g + motif.size() <= main_budget) {
        g += stamp_motif(motif);
        continue;
      }
    }
    add_random_gate();
    ++g;
  }

  // Collect dangling gates (no fanout) into pair-collectors until they fit
  // in the PO budget or the reserve is exhausted.
  auto dangling = [&] {
    std::vector<GateId> d;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).type != GateType::kInput && nl.fanouts(g).empty()) d.push_back(g);
    }
    return d;
  };

  // Collector type follows the mix so single-type (ANT) and skewed-mix
  // circuits stay pure; unary draws are retried.
  auto collector_type = [&] {
    if (forced_type) return *forced_type;
    for (int tries = 0; tries < 64; ++tries) {
      const GateType t = sampler.sample(rng);
      if (t != GateType::kNot && t != GateType::kBuf) return t;
    }
    return GateType::kAnd;
  };

  std::size_t used_reserve = 0;
  while (true) {
    auto d = dangling();
    if (d.size() <= spec.num_outputs || used_reserve >= reserve) break;
    std::shuffle(d.begin(), d.end(), rng);
    pool.push_back(nl.add_gate(fresh_name(), collector_type(), {d[0], d[1]}));
    ++used_reserve;
  }

  // Spend leftover reserve on ordinary gates to land near the target count.
  for (std::size_t g = used_reserve; g < reserve; ++g) add_random_gate();

  // Absorb any freshly dangling gates produced by the filler pass.
  while (true) {
    auto d = dangling();
    if (d.size() <= spec.num_outputs) break;
    std::shuffle(d.begin(), d.end(), rng);
    nl.add_gate(fresh_name(), collector_type(), {d[0], d[1]});
  }

  // Primary outputs: every dangling gate, then random internal logic gates
  // until the PO budget is met.
  auto d = dangling();
  for (GateId g : d) nl.mark_output(g);
  if (d.size() < spec.num_outputs) {
    std::vector<GateId> internal;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).type != GateType::kInput && !nl.is_output(g)) internal.push_back(g);
    }
    std::shuffle(internal.begin(), internal.end(), rng);
    for (GateId g : internal) {
      if (nl.outputs().size() >= spec.num_outputs) break;
      nl.mark_output(g);
    }
  }

  nl.validate();
  return nl;
}

}  // namespace

Netlist generate(const CircuitSpec& spec) { return generate_impl(spec, std::nullopt); }

Netlist generate_single_type(const CircuitSpec& spec, GateType type) {
  if (min_fanin(type) < 1 || type == GateType::kMux) {
    throw std::invalid_argument("generate_single_type: need a logic gate type");
  }
  return generate_impl(spec, type);
}

}  // namespace muxlink::circuitgen
