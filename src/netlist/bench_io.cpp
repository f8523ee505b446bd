#include "netlist/bench_io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "common/fault.h"
#include "netlist/analysis.h"

namespace muxlink::netlist {
namespace {

// The C locale's isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw BenchParseError("BENCH parse error at line " + std::to_string(line_no) + ": " + what);
}

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

// A distinct name in the text and what the passes learned about it.
struct Symbol {
  std::string_view name;  // a view into the caller's buffer
  std::size_t hash;
  bool input = false;
  int output_line = 0;       // 0 = not declared as OUTPUT
  std::uint32_t def = kNone;  // index of the pending gate defining it
  GateId gate = kNullGate;    // its id once placed in the netlist
};

// Every distinct name, interned once: an open-addressing table from the
// name's bytes to a dense symbol id. The hash is the netlist index's, so
// placing a gate hashes nothing again.
class SymbolTable {
 public:
  explicit SymbolTable(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, kNone);
    symbols_.reserve(expected);
  }

  std::uint32_t intern(std::string_view name) {
    if (2 * (symbols_.size() + 1) > slots_.size()) grow();
    const std::size_t h = Netlist::hash_name(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == kNone) {
        slots_[i] = static_cast<std::uint32_t>(symbols_.size());
        symbols_.push_back(Symbol{name, h});
        return slots_[i];
      }
      if (symbols_[s].hash == h && symbols_[s].name == name) return s;
    }
  }

  Symbol& operator[](std::uint32_t id) { return symbols_[id]; }
  // The name in quotes, as the diagnostics print it.
  std::string quoted(std::uint32_t id) const { return "'" + std::string(symbols_[id].name) + "'"; }

 private:
  void grow() {
    slots_.assign(2 * slots_.size(), kNone);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t s = 0; s < symbols_.size(); ++s) {
      std::size_t i = symbols_[s].hash & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<std::uint32_t> slots_;  // symbol ids, kNone when free
  std::vector<Symbol> symbols_;
};

// A gate definition seen by the scan; its operands are
// operands[first, first + count) of the flat symbol-id array.
struct PendingGate {
  std::uint32_t sym;
  GateType type;
  int line_no;
  std::uint32_t first;
  std::uint32_t count;
};

// "FUNC(a, b)" -> FUNC, calling `emit` on each non-empty trimmed operand.
// Returns false if no parentheses.
template <typename Emit>
bool split_call(std::string_view rhs, std::string_view& func, Emit&& emit) {
  const auto open = rhs.find('(');
  const auto close = rhs.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    return false;
  }
  func = trim(rhs.substr(0, open));
  std::string_view args = rhs.substr(open + 1, close - open - 1);
  for (;;) {
    const auto comma = args.find(',');
    const std::string_view tok = trim(args.substr(0, comma));
    if (!tok.empty()) emit(tok);
    if (comma == std::string_view::npos) break;
    args.remove_prefix(comma + 1);
  }
  return true;
}

bool iequals(std::string_view a, std::string_view upper) {
  if (a.size() != upper.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) != upper[i]) return false;
  }
  return true;
}

}  // namespace

// One scan over the caller's buffer interns every name, then the passes
// below run over symbol ids. They run in the order the diagnostics are
// specified: scan errors, INPUT redefinitions and duplicate definitions,
// undefined signals, placement (arity), loops, OUTPUT resolution.
Netlist parse_bench(std::string_view text, std::string name) {
  // Real-world corpus quirks accepted up front: a UTF-8 BOM prefix (files
  // exported from Windows editors) is skipped; CRLF line endings and a
  // final `#` comment with no trailing newline fall out of trim() and the
  // split on '\n'.
  if (text.starts_with("\xEF\xBB\xBF")) text.remove_prefix(3);

  // text/16 over-counts the lines and names of a typical BENCH file (its
  // assignment lines run 20+ bytes), so the scratch below is sized once
  // from it; a file of shorter lines only grows it.
  const std::size_t expected = std::min<std::size_t>(text.size() / 16, std::size_t{1} << 16);
  SymbolTable syms(expected);
  std::vector<std::uint32_t> inputs;
  std::vector<std::pair<std::uint32_t, int>> outputs;
  std::vector<PendingGate> pending;
  std::vector<std::uint32_t> operands;
  inputs.reserve(expected);
  outputs.reserve(expected);
  pending.reserve(expected);
  operands.reserve(2 * expected);

  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const auto end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    std::string_view func;
    if (eq == std::string_view::npos) {
      std::size_t count = 0;
      std::uint32_t sym = kNone;
      const bool call = split_call(line, func, [&](std::string_view tok) {
        if (count++ == 0) sym = syms.intern(tok);
      });
      if (!call) fail(line_no, "expected INPUT/OUTPUT/assignment");
      if (count != 1) fail(line_no, "INPUT/OUTPUT takes exactly one name");
      if (iequals(func, "INPUT")) {
        if (syms[sym].input) fail(line_no, "duplicate INPUT declaration of " + syms.quoted(sym));
        syms[sym].input = true;
        inputs.push_back(sym);
      } else if (iequals(func, "OUTPUT")) {
        if (syms[sym].output_line != 0) {
          fail(line_no, "duplicate OUTPUT declaration of " + syms.quoted(sym) +
                            " (first declared at line " + std::to_string(syms[sym].output_line) +
                            ")");
        }
        syms[sym].output_line = line_no;
        outputs.emplace_back(sym, line_no);
      } else {
        fail(line_no, "unknown directive '" + std::string(func) + "'");
      }
      continue;
    }

    const std::string_view lhs = trim(line.substr(0, eq));
    const std::string_view rhs = trim(line.substr(eq + 1));
    if (lhs.empty()) fail(line_no, "empty signal name");
    const auto first = static_cast<std::uint32_t>(operands.size());
    const auto operand = [&](std::string_view tok) { operands.push_back(syms.intern(tok)); };
    if (!split_call(rhs, func, operand)) fail(line_no, "expected FUNC(args)");
    const auto type = gate_type_from_string(func);
    if (!type) fail(line_no, "unknown gate function '" + std::string(func) + "'");
    if (*type == GateType::kInput) fail(line_no, "INPUT cannot appear on an assignment");
    pending.push_back(PendingGate{syms.intern(lhs), *type, line_no, first,
                                  static_cast<std::uint32_t>(operands.size()) - first});
  }

  // Gate definitions may be in any order: resolve with a Kahn-style pass
  // over the pending definitions (the netlist builder needs fanin ids to
  // exist). A stall means an undefined signal or a combinational loop.
  const std::size_t n_pending = pending.size();
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    Symbol& sym = syms[pending[i].sym];
    if (sym.input) fail(pending[i].line_no, "redefinition of an INPUT");
    if (sym.def != kNone) {
      fail(pending[i].line_no, "duplicate definition of " + syms.quoted(pending[i].sym));
    }
    sym.def = i;
  }
  // Dependents as CSR: dep_begin[j] .. dep_begin[j + 1] lists, in pending
  // order and once per operand occurrence, the gates that read gate j.
  std::vector<std::uint32_t> unresolved(n_pending, 0);
  std::vector<std::uint32_t> dep_begin(n_pending + 1, 0);
  std::vector<std::uint32_t> ready;
  ready.reserve(n_pending);
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    const PendingGate& pg = pending[i];
    for (std::uint32_t k = pg.first; k < pg.first + pg.count; ++k) {
      const Symbol& op = syms[operands[k]];
      if (op.def != kNone) {
        ++dep_begin[op.def + 1];
        ++unresolved[i];
      } else if (!op.input) {
        fail(pg.line_no, "undefined signal " + syms.quoted(operands[k]));
      }
    }
    if (unresolved[i] == 0) ready.push_back(i);
  }
  for (std::size_t j = 0; j < n_pending; ++j) dep_begin[j + 1] += dep_begin[j];
  std::vector<std::uint32_t> dependents(dep_begin[n_pending]);
  // dep_begin[d] walks through d's slice and ends at the next slice's start;
  // the shift below restores the starts.
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    const PendingGate& pg = pending[i];
    for (std::uint32_t k = pg.first; k < pg.first + pg.count; ++k) {
      if (const std::uint32_t d = syms[operands[k]].def; d != kNone) dependents[dep_begin[d]++] = i;
    }
  }
  for (std::size_t j = n_pending; j > 0; --j) dep_begin[j] = dep_begin[j - 1];
  dep_begin[0] = 0;

  // Inputs take ids 0..I-1 in declaration order; assignments follow in
  // placement order. The netlist's storage is sized up front, and each
  // gate's operand symbols are overwritten in place by their gate ids, so
  // placement allocates nothing per gate.
  std::size_t name_bytes = 0;
  for (std::uint32_t s : inputs) name_bytes += syms[s].name.size();
  for (const PendingGate& pg : pending) name_bytes += syms[pg.sym].name.size();
  Netlist nl(std::move(name));
  nl.reserve(inputs.size() + n_pending, inputs.size(), outputs.size(), name_bytes,
             operands.size());
  for (std::uint32_t s : inputs) {
    syms[s].gate = nl.add_gate(syms[s].name, syms[s].hash, GateType::kInput, {});
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const PendingGate& pg = pending[ready[head]];
    const std::span<GateId> fanins(operands.data() + pg.first, pg.count);
    for (GateId& f : fanins) f = syms[f].gate;
    Symbol& sym = syms[pg.sym];
    try {
      sym.gate = nl.add_gate(sym.name, sym.hash, pg.type, fanins);
    } catch (const NetlistError& e) {
      fail(pg.line_no, e.what());
    }
    for (std::uint32_t d = dep_begin[ready[head]]; d < dep_begin[ready[head] + 1]; ++d) {
      if (--unresolved[dependents[d]] == 0) ready.push_back(dependents[d]);
    }
  }
  if (ready.size() != n_pending) {
    for (const PendingGate& pg : pending) {
      if (syms[pg.sym].gate == kNullGate) {
        fail(pg.line_no, "combinational loop involving " + syms.quoted(pg.sym));
      }
    }
  }

  for (const auto& [sym, oline] : outputs) {
    const GateId o = syms[sym].gate;
    if (o == kNullGate) fail(oline, "OUTPUT names undefined signal " + syms.quoted(sym));
    nl.mark_output(o);
  }
  return nl;
}

Netlist read_bench_file(const std::filesystem::path& path) {
  MUXLINK_FAULT_POINT("io.read_bench");
  std::ifstream in(path);
  if (!in) throw BenchParseError("cannot open '" + path.string() + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_bench(buf.str(), path.stem().string());
}

std::string write_bench(const Netlist& nl) {
  std::string out;
  out.reserve(64 + nl.name().size() + 32 * nl.num_gates());
  const auto line = [&](std::string_view directive, GateId g) {
    out += directive;
    out += nl.gate(g).name;
    out += ")\n";
  };
  out += "# ";
  out += nl.name();
  out += " — emitted by muxlink\n";
  for (GateId i : nl.inputs()) line("INPUT(", i);
  for (GateId o : nl.outputs()) line("OUTPUT(", o);
  out += '\n';
  for (GateId g : topological_order(nl)) {
    const Gate gate = nl.gate(g);
    if (gate.type == GateType::kInput) continue;
    out += gate.name;
    out += " = ";
    out += to_string(gate.type);
    out += '(';
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i > 0) out += ", ";
      out += nl.gate(gate.fanins[i]).name;
    }
    out += ")\n";
  }
  return out;
}

void write_bench_file(const Netlist& nl, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw NetlistError("cannot write '" + path.string() + "'");
  out << write_bench(nl);
}

}  // namespace muxlink::netlist
