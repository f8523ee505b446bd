#include "attacks/sat_attack.h"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "attacks/key_trace.h"
#include "sat/cnf.h"
#include "sim/simulator.h"

namespace muxlink::attacks {

using locking::KeyBit;
using netlist::GateId;
using netlist::Netlist;
using sat::CircuitInstance;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

namespace {

// Non-key primary inputs of the locked design, in inputs() order.
std::vector<GateId> plain_inputs(const Netlist& locked) {
  const std::string prefix = locking::kKeyInputPrefix;
  std::vector<GateId> ins;
  for (GateId g : locked.inputs()) {
    if (locked.gate(g).name.rfind(prefix, 0) != 0) ins.push_back(g);
  }
  return ins;
}

}  // namespace

Oracle make_simulation_oracle(const Netlist& original, const Netlist& locked) {
  auto sim = std::make_shared<sim::Simulator>(original);
  // Map the locked design's plain inputs onto the original's input order.
  const auto plain = plain_inputs(locked);
  std::vector<std::size_t> position;  // plain index -> original input index
  std::unordered_map<std::string, std::size_t> original_pos;
  for (std::size_t i = 0; i < original.inputs().size(); ++i) {
    original_pos.emplace(original.gate(original.inputs()[i]).name, i);
  }
  for (GateId g : plain) {
    const auto it = original_pos.find(std::string(locked.gate(g).name));
    if (it == original_pos.end()) {
      throw std::invalid_argument("oracle: locked input '" + locked.gate(g).name +
                                  "' missing from the original design");
    }
    position.push_back(it->second);
  }
  const std::size_t original_inputs = original.inputs().size();
  if (position.size() != original_inputs) {
    throw std::invalid_argument("oracle: input interfaces do not match");
  }
  return [sim, position, original_inputs](const std::vector<bool>& x) {
    if (x.size() != position.size()) {
      throw std::invalid_argument("oracle: wrong input vector size");
    }
    std::vector<bool> ordered(original_inputs, false);
    for (std::size_t i = 0; i < x.size(); ++i) ordered[position[i]] = x[i];
    return sim->run_single(ordered);
  };
}

SatAttackResult sat_attack(const Netlist& locked, const Oracle& oracle,
                           const SatAttackOptions& opts) {
  SatAttackResult result;
  const auto keys = find_key_inputs(locked);
  if (keys.empty()) throw netlist::NetlistError("sat_attack: no key inputs found");
  const auto plain = plain_inputs(locked);

  Solver solver;

  // Shared plain-input vars for the two miter copies.
  std::unordered_map<std::string, Var> shared;
  std::vector<Var> x_vars;
  for (GateId g : plain) {
    const Var v = solver.new_var();
    shared.emplace(locked.gate(g).name, v);
    x_vars.push_back(v);
  }
  const CircuitInstance copy1(solver, locked, shared);
  const CircuitInstance copy2(solver, locked, shared);

  // Key vars of each copy.
  std::vector<Var> k1, k2;
  for (const KeyInput& k : keys) {
    k1.push_back(copy1.var_of(k.gate));
    k2.push_back(copy2.var_of(k.gate));
  }

  // Miter output: OR over per-output XORs, asserted via assumption.
  const auto out1 = copy1.output_vars();
  const auto out2 = copy2.output_vars();
  std::vector<Lit> diffs;
  for (std::size_t i = 0; i < out1.size(); ++i) {
    diffs.push_back(sat::encode_xor(solver, out1[i], out2[i]));
  }
  const Var miter = sat::encode_or(solver, diffs);

  while (result.iterations < opts.max_iterations) {
    const Result r = solver.solve({miter}, opts.conflict_budget);
    if (r == Result::kUnknown) {
      result.conflicts = solver.conflicts();
      return result;  // budget exhausted
    }
    if (r == Result::kUnsat) break;  // no distinguishing input remains

    // Distinguishing pattern from the model.
    std::vector<bool> x;
    x.reserve(x_vars.size());
    for (Var v : x_vars) x.push_back(solver.model_value(v));
    const std::vector<bool> y = oracle(x);
    ++result.iterations;

    // Pin a fresh copy per key-variable set to (x -> y).
    for (const std::vector<Var>* kv : {&k1, &k2}) {
      std::unordered_map<std::string, Var> pin;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        pin.emplace(keys[i].name, (*kv)[i]);
      }
      const CircuitInstance constrained(solver, locked, pin);
      for (std::size_t i = 0; i < plain.size(); ++i) {
        const Var v = constrained.var_of(plain[i]);
        solver.add_unit(x[i] ? v : -v);
      }
      const auto outs = constrained.output_vars();
      if (outs.size() != y.size()) throw std::logic_error("sat_attack: oracle width mismatch");
      for (std::size_t i = 0; i < outs.size(); ++i) {
        solver.add_unit(y[i] ? outs[i] : -outs[i]);
      }
    }
  }

  if (result.iterations >= opts.max_iterations) {
    result.conflicts = solver.conflicts();
    return result;  // gave up
  }

  // Converged: any key satisfying the accumulated IO constraints works.
  const Result final = solver.solve({}, opts.conflict_budget);
  result.conflicts = solver.conflicts();
  if (final != Result::kSat) return result;  // should not happen
  result.success = true;
  result.key.reserve(keys.size());
  for (Var v : k1) {
    result.key.push_back(solver.model_value(v) ? KeyBit::kOne : KeyBit::kZero);
  }
  return result;
}

}  // namespace muxlink::attacks
