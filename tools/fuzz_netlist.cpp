// fuzz_netlist — deterministic mutation fuzzer for the BENCH and Verilog
// parsers and the JSON decoder (DESIGN.md §8).
//
//   fuzz_netlist [--corpus DIR] [--iters N] [--seed S] [--max-seconds T]
//
// Each iteration picks a corpus file, applies a seeded stack of byte-level
// mutations (flips, truncations, slice splices, dictionary-token inserts —
// including BOM, CRLF, and NUL bytes), and feeds the result to the matching
// parser (*.v → parse_verilog, *.json → common::Json::parse, everything
// else → parse_bench). The contract under test: EVERY input either parses
// or raises the parser's structured error (NetlistError, or JsonError for
// JSON) — any other exception type, crash, or sanitizer finding is a bug.
// Netlists that parse must pass Netlist::validate() (the flat name arena,
// fanin pool and name index agree), and are round-tripped through the
// writer and re-parsed; a parsed JSON value v must satisfy
// parse(dump(v)) == v.
//
// The run is fully deterministic in (corpus bytes, --seed, --iters):
// corpus files are loaded in sorted filename order and all randomness
// comes from one mt19937_64. On failure the offending input is written to
// fuzz_fail_<iter>.txt and the exit status is 1; a clean run prints one
// JSON summary line and exits 0. Exit 64 on CLI misuse / empty corpus.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "tools/cli_args.h"

namespace {

using namespace muxlink;

enum class Format { kBench, kVerilog, kJson };

struct CorpusEntry {
  std::string name;
  std::string bytes;
  Format format = Format::kBench;
};

constexpr std::size_t kMaxInputBytes = std::size_t{1} << 16;

// Grammar fragments that steer mutants toward interesting parser states.
// The empty entry is the NUL-byte marker (insert handles it specially —
// C strings cannot carry an embedded NUL).
const char* const kDictionary[] = {
    "INPUT(",  "OUTPUT(", "= AND(",   "= MUX(",  "= CONST0()", "#",     "(",
    ")",       ",",       "=",        "\r\n",    "\xEF\xBB\xBF", "\n\n", "module ",
    "endmodule", "assign ", "wire ",  "input ",  "output ",    "1'b0",  "1'b1",
    "//",      "/*",      "*/",       "\\",      "\"",       "\\u00", "\\u",
    "{",       "}",       "[",        "]",       ":",        "true",  "null",
    "-1e9",    "\x7f",    ""};

std::string mutate(const std::string& base, const std::vector<CorpusEntry>& corpus,
                   std::mt19937_64& rng) {
  std::string s = base;
  const int rounds = 1 + static_cast<int>(rng() % 6);
  for (int r = 0; r < rounds; ++r) {
    if (s.empty()) s = "\n";
    const std::size_t pos = rng() % s.size();
    switch (rng() % 7) {
      case 0:  // flip a byte
        s[pos] = static_cast<char>(rng() & 0xFF);
        break;
      case 1:  // truncate
        s.resize(pos);
        break;
      case 2: {  // duplicate a slice
        const std::size_t len = std::min<std::size_t>(1 + rng() % 64, s.size() - pos);
        s.insert(rng() % (s.size() + 1), s.substr(pos, len));
        break;
      }
      case 3: {  // delete a slice
        const std::size_t len = std::min<std::size_t>(1 + rng() % 64, s.size() - pos);
        s.erase(pos, len);
        break;
      }
      case 4: {  // insert a dictionary token (NUL entry inserts one NUL byte)
        const std::size_t di = rng() % std::size(kDictionary);
        const char* tok = kDictionary[di];
        if (*tok == '\0') {
          s.insert(pos, 1, '\0');
        } else {
          s.insert(pos, tok);
        }
        break;
      }
      case 5: {  // splice with another corpus entry
        const CorpusEntry& other = corpus[rng() % corpus.size()];
        if (!other.bytes.empty()) {
          s = s.substr(0, pos) + other.bytes.substr(rng() % other.bytes.size());
        }
        break;
      }
      case 6: {  // repeat one character
        const std::size_t count = 1 + rng() % 256;
        s.insert(pos, count, s[pos]);
        break;
      }
    }
    if (s.size() > kMaxInputBytes) s.resize(kMaxInputBytes);
  }
  return s;
}

// One fuzz execution. Returns an empty string on contract compliance, or a
// description of the violation.
std::string run_one(const std::string& input, Format format) {
  if (format == Format::kJson) {
    common::Json v;
    try {
      v = common::Json::parse(input);
    } catch (const common::JsonError&) {
      return "";  // structured decode error — the contract
    } catch (const std::exception& e) {
      return std::string("unexpected exception type: ") + e.what();
    } catch (...) {
      return "unexpected non-std exception";
    }
    // Parsed: the dump must decode again, to an equal value.
    try {
      if (common::Json::parse(v.dump()) != v) return "parse(dump(v)) != v";
    } catch (const std::exception& e) {
      return std::string("parse(dump(v)) threw: ") + e.what();
    }
    return "";
  }
  const bool verilog = format == Format::kVerilog;
  try {
    const netlist::Netlist nl =
        verilog ? netlist::parse_verilog(input) : netlist::parse_bench(input, "fuzz");
    try {
      nl.validate();
    } catch (const netlist::NetlistError& e) {
      return std::string("parsed netlist fails validate(): ") + e.what();
    }
    // Parsed: the writer must accept what the parser produced, and the
    // round trip must parse again.
    const std::string out = verilog ? netlist::write_verilog(nl) : netlist::write_bench(nl);
    if (verilog) {
      netlist::parse_verilog(out).validate();
    } else {
      netlist::parse_bench(out, "fuzz2").validate();
    }
  } catch (const netlist::NetlistError&) {
    // Structured parse error — the contract.
  } catch (const std::exception& e) {
    return std::string("unexpected exception type: ") + e.what();
  } catch (...) {
    return "unexpected non-std exception";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"corpus", "iters", "seed", "max-seconds"});
  } catch (const std::exception& e) {
    std::cerr << "usage: fuzz_netlist [--corpus DIR] [--iters N] [--seed S] [--max-seconds T]\n"
              << e.what() << "\n";
    return 64;
  }
  const std::string corpus_dir = args.get_or("corpus", "tests/corpus");
  const long iters = args.get_long("iters", 10000);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const double max_seconds = args.get_double("max-seconds", 0.0);  // 0 = no budget

  std::vector<CorpusEntry> corpus;
  if (std::filesystem::is_directory(corpus_dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream is(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << is.rdbuf();
      const auto ext = entry.path().extension();
      corpus.push_back({entry.path().filename().string(), buf.str(),
                        ext == ".v"      ? Format::kVerilog
                        : ext == ".json" ? Format::kJson
                                         : Format::kBench});
    }
  }
  if (corpus.empty()) {
    std::cerr << "fuzz_netlist: no corpus files in '" << corpus_dir << "'\n";
    return 64;
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) { return a.name < b.name; });

  std::mt19937_64 rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  long executed = 0;
  long failures = 0;
  for (long i = 0; i < iters; ++i) {
    if (max_seconds > 0.0 && elapsed() > max_seconds) break;
    const CorpusEntry& base = corpus[rng() % corpus.size()];
    const std::string input = mutate(base.bytes, corpus, rng);
    const std::string violation = run_one(input, base.format);
    ++executed;
    if (!violation.empty()) {
      ++failures;
      const std::string dump = "fuzz_fail_" + std::to_string(i) + ".txt";
      std::ofstream(dump, std::ios::binary) << input;
      std::cerr << "fuzz_netlist: iteration " << i << " (seed " << seed << ", base "
                << base.name << "): " << violation << "\n  input dumped to " << dump << "\n";
    }
  }

  std::cout << "{\"tool\": \"fuzz_netlist\", \"corpus_files\": " << corpus.size()
            << ", \"requested_iters\": " << iters << ", \"executed\": " << executed
            << ", \"failures\": " << failures << ", \"seed\": " << seed
            << ", \"seconds\": " << elapsed() << "}\n";
  return failures == 0 ? 0 : 1;
}
