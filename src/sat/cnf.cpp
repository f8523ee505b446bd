#include "sat/cnf.h"

#include <stdexcept>

#include "netlist/analysis.h"

namespace muxlink::sat {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

// z <-> AND(xs): (¬z ∨ x_i) for all i; (z ∨ ¬x_1 ∨ ... ∨ ¬x_n).
void clauses_and(Solver& s, Var z, const std::vector<Lit>& xs) {
  std::vector<Lit> big{z};
  for (Lit x : xs) {
    s.add_binary(-z, x);
    big.push_back(-x);
  }
  s.add_clause(std::move(big));
}

// z <-> OR(xs): (¬x_i ∨ z) for all i; (¬z ∨ x_1 ∨ ... ∨ x_n).
void clauses_or(Solver& s, Var z, const std::vector<Lit>& xs) {
  std::vector<Lit> big{-z};
  for (Lit x : xs) {
    s.add_binary(z, -x);
    big.push_back(x);
  }
  s.add_clause(std::move(big));
}

// z <-> (a XOR b).
void clauses_xor(Solver& s, Var z, Lit a, Lit b) {
  s.add_ternary(-z, a, b);
  s.add_ternary(-z, -a, -b);
  s.add_ternary(z, -a, b);
  s.add_ternary(z, a, -b);
}

// z <-> MUX(sel, a, b)  (sel = 0 -> a).
void clauses_mux(Solver& s, Var z, Lit sel, Lit a, Lit b) {
  s.add_ternary(-z, sel, a);    // sel=0 -> (z -> a)
  s.add_ternary(z, sel, -a);    // sel=0 -> (a -> z)
  s.add_ternary(-z, -sel, b);   // sel=1 -> (z -> b)
  s.add_ternary(z, -sel, -b);   // sel=1 -> (b -> z)
}

}  // namespace

Var encode_xor(Solver& solver, Var a, Var b) {
  const Var z = solver.new_var();
  clauses_xor(solver, z, a, b);
  return z;
}

Var encode_or(Solver& solver, const std::vector<Lit>& xs) {
  const Var z = solver.new_var();
  clauses_or(solver, z, xs);
  return z;
}

CircuitInstance::CircuitInstance(Solver& solver, const Netlist& nl,
                                 const std::unordered_map<std::string, Var>& shared_inputs)
    : solver_(&solver), nl_(&nl), vars_(nl.num_gates(), 0) {
  for (const GateId g : netlist::topological_order(nl)) {
    const Gate& gate = nl.gate(g);
    if (gate.type == GateType::kInput) {
      const auto it = shared_inputs.find(std::string(gate.name));
      vars_[g] = it != shared_inputs.end() ? it->second : solver.new_var();
      continue;
    }
    const Var z = solver.new_var();
    vars_[g] = z;
    std::vector<Lit> ins;
    ins.reserve(gate.fanins.size());
    for (GateId f : gate.fanins) ins.push_back(vars_[f]);
    switch (gate.type) {
      case GateType::kConst0:
        solver.add_unit(-z);
        break;
      case GateType::kConst1:
        solver.add_unit(z);
        break;
      case GateType::kBuf:
        solver.add_binary(-z, ins[0]);
        solver.add_binary(z, -ins[0]);
        break;
      case GateType::kNot:
        solver.add_binary(-z, -ins[0]);
        solver.add_binary(z, ins[0]);
        break;
      case GateType::kAnd:
        clauses_and(solver, z, ins);
        break;
      case GateType::kNand: {
        // z <-> ¬AND(xs): encode via an auxiliary AND output.
        const Var t = solver.new_var();
        clauses_and(solver, t, ins);
        solver.add_binary(-z, -t);
        solver.add_binary(z, t);
        break;
      }
      case GateType::kOr:
        clauses_or(solver, z, ins);
        break;
      case GateType::kNor: {
        const Var t = solver.new_var();
        clauses_or(solver, t, ins);
        solver.add_binary(-z, -t);
        solver.add_binary(z, t);
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Fold pairwise.
        Lit acc = ins[0];
        for (std::size_t i = 1; i < ins.size(); ++i) {
          const Var t = solver.new_var();
          clauses_xor(solver, t, acc, ins[i]);
          acc = t;
        }
        if (gate.type == GateType::kXor) {
          solver.add_binary(-z, acc);
          solver.add_binary(z, -acc);
        } else {
          solver.add_binary(-z, -acc);
          solver.add_binary(z, acc);
        }
        break;
      }
      case GateType::kMux:
        clauses_mux(solver, z, ins[0], ins[1], ins[2]);
        break;
      default:
        throw std::invalid_argument("CircuitInstance: unsupported gate type");
    }
  }
}

Var CircuitInstance::var_of_name(std::string_view name) const {
  const GateId g = nl_->find(name);
  if (g == netlist::kNullGate) {
    throw std::invalid_argument("CircuitInstance: unknown signal '" + std::string(name) + "'");
  }
  return vars_[g];
}

std::vector<Var> CircuitInstance::output_vars() const {
  std::vector<Var> out;
  out.reserve(nl_->outputs().size());
  for (GateId o : nl_->outputs()) out.push_back(vars_[o]);
  return out;
}

}  // namespace muxlink::sat
