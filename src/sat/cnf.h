// Tseitin encoding of combinational netlists into CNF.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "sat/solver.h"

namespace muxlink::sat {

// One instantiation of a netlist inside a solver: every gate gets a SAT
// variable; clauses constrain each gate to its Boolean function. Primary
// inputs are free variables. Instantiate twice (with shared input vars) to
// build miters.
class CircuitInstance {
 public:
  // `shared_inputs` maps input NAMES to existing solver vars (e.g. to share
  // the non-key inputs between two copies); missing inputs get fresh vars.
  CircuitInstance(Solver& solver, const netlist::Netlist& nl,
                  const std::unordered_map<std::string, Var>& shared_inputs = {});

  Var var_of(netlist::GateId g) const { return vars_.at(g); }
  Var var_of_name(std::string_view name) const;
  const netlist::Netlist& netlist() const noexcept { return *nl_; }

  // Output vars in outputs() order.
  std::vector<Var> output_vars() const;

 private:
  Solver* solver_;
  const netlist::Netlist* nl_;
  std::vector<Var> vars_;
};

// Adds clauses forcing z <-> XOR(a, b) (fresh z returned).
Var encode_xor(Solver& solver, Var a, Var b);

// Adds clauses forcing z <-> OR(xs) (fresh z returned; xs may be literals).
Var encode_or(Solver& solver, const std::vector<Lit>& xs);

}  // namespace muxlink::sat
