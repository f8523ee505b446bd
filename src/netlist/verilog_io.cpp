#include "netlist/verilog_io.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "netlist/analysis.h"
#include "netlist/bench_io.h"

namespace muxlink::netlist {

namespace {

// --- tokenizer ------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kPunct, kEnd } kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_space_and_comments();
    if (pos_ >= text_.size()) return {Token::Kind::kEnd, "", line_};
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '\\') {
      return lex_ident();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Only 1'b0 / 1'b1 constants are meaningful in this subset.
      std::string t;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '\'')) {
        t.push_back(text_[pos_++]);
      }
      return {Token::Kind::kIdent, t, line_};
    }
    ++pos_;
    return {Token::Kind::kPunct, std::string(1, c), line_};
  }

  int line() const noexcept { return line_; }

 private:
  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() && !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  Token lex_ident() {
    std::string t;
    if (text_[pos_] == '\\') {  // escaped identifier: up to whitespace
      ++pos_;
      while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        t.push_back(text_[pos_++]);
      }
    } else {
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_' ||
              text_[pos_] == '$')) {
        t.push_back(text_[pos_++]);
      }
    }
    return {Token::Kind::kIdent, t, line_};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

[[noreturn]] void fail(int line, const std::string& what) {
  throw VerilogParseError("Verilog parse error at line " + std::to_string(line) + ": " + what);
}

std::optional<GateType> primitive_of(const std::string& name) {
  if (name == "and") return GateType::kAnd;
  if (name == "nand") return GateType::kNand;
  if (name == "or") return GateType::kOr;
  if (name == "nor") return GateType::kNor;
  if (name == "xor") return GateType::kXor;
  if (name == "xnor") return GateType::kXnor;
  if (name == "not") return GateType::kNot;
  if (name == "buf") return GateType::kBuf;
  if (name == "mux") return GateType::kMux;
  return std::nullopt;
}

const char* primitive_name(GateType t) {
  switch (t) {
    case GateType::kAnd:
      return "and";
    case GateType::kNand:
      return "nand";
    case GateType::kOr:
      return "or";
    case GateType::kNor:
      return "nor";
    case GateType::kXor:
      return "xor";
    case GateType::kXnor:
      return "xnor";
    case GateType::kNot:
      return "not";
    case GateType::kBuf:
      return "buf";
    case GateType::kMux:
      return "mux";
    default:
      return nullptr;
  }
}

}  // namespace

Netlist parse_verilog(std::string_view text) {
  Lexer lex(text);
  auto expect_ident = [&](const char* what) {
    const Token t = lex.next();
    if (t.kind != Token::Kind::kIdent) fail(t.line, std::string("expected ") + what);
    return t;
  };
  auto expect_punct = [&](char c) {
    const Token t = lex.next();
    if (t.kind != Token::Kind::kPunct || t.text[0] != c) {
      fail(t.line, std::string("expected '") + c + "', got '" + t.text + "'");
    }
  };

  const Token kw = expect_ident("'module'");
  if (kw.text != "module") fail(kw.line, "file must start with a module");
  const Token module_name = expect_ident("module name");

  // Port list (names only; directions come from input/output declarations).
  {
    const Token t = lex.next();
    if (t.kind == Token::Kind::kPunct && t.text == "(") {
      while (true) {
        const Token p = lex.next();
        if (p.kind == Token::Kind::kPunct && p.text == ")") break;
        if (p.kind == Token::Kind::kEnd) fail(p.line, "unterminated port list");
      }
      expect_punct(';');
    } else if (!(t.kind == Token::Kind::kPunct && t.text == ";")) {
      fail(t.line, "expected port list or ';'");
    }
  }

  // Collected statements; gate bodies are resolved after all declarations.
  std::vector<std::string> inputs, outputs;
  struct Instance {
    GateType type;
    std::vector<std::string> ports;  // output first
    int line;
  };
  std::vector<Instance> instances;
  struct Assign {
    std::string lhs, rhs;
    int line;
  };
  std::vector<Assign> assigns;
  bool uses_const0 = false, uses_const1 = false;

  auto read_name_list = [&](std::vector<std::string>* sink) {
    while (true) {
      const Token n = expect_ident("identifier");
      if (sink != nullptr) sink->push_back(n.text);
      const Token sep = lex.next();
      if (sep.kind == Token::Kind::kPunct && sep.text == ";") break;
      if (!(sep.kind == Token::Kind::kPunct && sep.text == ",")) {
        fail(sep.line, "expected ',' or ';'");
      }
    }
  };

  while (true) {
    const Token t = lex.next();
    if (t.kind == Token::Kind::kEnd) fail(t.line, "missing 'endmodule'");
    if (t.kind != Token::Kind::kIdent) fail(t.line, "unexpected '" + t.text + "'");
    if (t.text == "endmodule") break;
    if (t.text == "input") {
      read_name_list(&inputs);
    } else if (t.text == "output") {
      read_name_list(&outputs);
    } else if (t.text == "wire") {
      read_name_list(nullptr);  // declarations carry no structure here
    } else if (t.text == "assign") {
      const Token lhs = expect_ident("assign target");
      expect_punct('=');
      const Token rhs = expect_ident("assign source");
      expect_punct(';');
      assigns.push_back({lhs.text, rhs.text, lhs.line});
      if (rhs.text == "1'b0") uses_const0 = true;
      if (rhs.text == "1'b1") uses_const1 = true;
    } else if (const auto prim = primitive_of(t.text)) {
      const Token inst = expect_ident("instance name");
      (void)inst;
      expect_punct('(');
      Instance instance{*prim, {}, t.line};
      while (true) {
        const Token p = lex.next();
        if (p.kind != Token::Kind::kIdent) fail(p.line, "expected port connection");
        instance.ports.push_back(p.text);
        if (p.text == "1'b0") uses_const0 = true;
        if (p.text == "1'b1") uses_const1 = true;
        const Token sep = lex.next();
        if (sep.kind == Token::Kind::kPunct && sep.text == ")") break;
        if (!(sep.kind == Token::Kind::kPunct && sep.text == ",")) {
          fail(sep.line, "expected ',' or ')'");
        }
      }
      expect_punct(';');
      if (instance.ports.size() < 2) fail(instance.line, "primitive needs >= 2 ports");
      instances.push_back(std::move(instance));
    } else {
      fail(t.line, "unsupported construct '" + t.text + "'");
    }
  }

  // Translate into BENCH text and reuse the (Kahn-ordered) BENCH builder —
  // same semantics, one resolution engine.
  std::ostringstream bench;
  for (const auto& name : inputs) bench << "INPUT(" << name << ")\n";
  for (const auto& name : outputs) bench << "OUTPUT(" << name << ")\n";
  if (uses_const0) bench << "1'b0 = CONST0()\n";
  if (uses_const1) bench << "1'b1 = CONST1()\n";
  for (const auto& a : assigns) bench << a.lhs << " = BUF(" << a.rhs << ")\n";
  for (const auto& inst : instances) {
    bench << inst.ports[0] << " = " << to_string(inst.type) << '(';
    for (std::size_t i = 1; i < inst.ports.size(); ++i) {
      if (i > 1) bench << ", ";
      bench << inst.ports[i];
    }
    bench << ")\n";
  }
  try {
    return parse_bench(bench.str(), module_name.text);
  } catch (const BenchParseError& e) {
    throw VerilogParseError("while elaborating module '" + module_name.text +
                            "': " + e.what());
  }
}

Netlist read_verilog_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw VerilogParseError("cannot open '" + path.string() + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_verilog(buf.str());
}

std::string write_verilog(const Netlist& nl) {
  // Escape names that are not plain Verilog identifiers.
  auto fmt = [](std::string_view name) {
    bool plain = !name.empty() && (std::isalpha(static_cast<unsigned char>(name[0])) ||
                                   name[0] == '_');
    for (char c : name) {
      plain = plain && (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$');
    }
    return plain ? std::string(name) : "\\" + std::string(name) + " ";
  };

  std::ostringstream os;
  const std::string top = nl.name().empty() ? "top" : nl.name();
  os << "// " << top << " — emitted by muxlink\n";
  os << "module " << fmt(top) << " (";
  bool first = true;
  for (GateId i : nl.inputs()) {
    os << (first ? "" : ", ") << fmt(nl.gate(i).name);
    first = false;
  }
  for (GateId o : nl.outputs()) {
    os << (first ? "" : ", ") << fmt(nl.gate(o).name);
    first = false;
  }
  os << ");\n";
  for (GateId i : nl.inputs()) os << "  input " << fmt(nl.gate(i).name) << ";\n";
  for (GateId o : nl.outputs()) os << "  output " << fmt(nl.gate(o).name) << ";\n";
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const auto& gate = nl.gate(g);
    if (gate.type == GateType::kInput || nl.is_output(g)) continue;
    os << "  wire " << fmt(gate.name) << ";\n";
  }
  int counter = 0;
  for (GateId g : topological_order(nl)) {
    const Gate& gate = nl.gate(g);
    if (gate.type == GateType::kInput) continue;
    if (gate.type == GateType::kConst0) {
      os << "  assign " << fmt(gate.name) << " = 1'b0;\n";
      continue;
    }
    if (gate.type == GateType::kConst1) {
      os << "  assign " << fmt(gate.name) << " = 1'b1;\n";
      continue;
    }
    os << "  " << primitive_name(gate.type) << " g" << counter++ << " (" << fmt(gate.name);
    for (GateId f : gate.fanins) os << ", " << fmt(nl.gate(f).name);
    os << ");\n";
  }
  os << "endmodule\n";
  return os.str();
}

void write_verilog_file(const Netlist& nl, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw NetlistError("cannot write '" + path.string() + "'");
  out << write_verilog(nl);
}

}  // namespace muxlink::netlist
