// AttackJobSpec from command-line flags, shared by `muxlink` (attack,
// untangle, submit) and `muxlink-coord`, so every front end builds, and
// validates, the same spec bytes for the same flags.
#pragma once

#include <cctype>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "locking/schemes.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "tools/cli_args.h"

namespace muxlink::tools {

// .v / .sv files use structural Verilog; everything else is BENCH.
inline bool is_verilog(const std::string& path) {
  return path.ends_with(".v") || path.ends_with(".sv");
}

inline netlist::Netlist read_design(const std::string& path) {
  return is_verilog(path) ? netlist::read_verilog_file(path) : netlist::read_bench_file(path);
}

// --truth-key accepts either a file holding the bitstring or the bitstring
// itself.
inline std::vector<std::uint8_t> read_truth_key(const std::string& value) {
  std::string text = value;
  if (std::ifstream is(value); is) {
    std::getline(is, text);
  }
  std::vector<std::uint8_t> bits;
  bits.reserve(text.size());
  for (char c : text) {
    if (c == '0' || c == '1') {
      bits.push_back(static_cast<std::uint8_t>(c - '0'));
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("--truth-key: '" + value +
                                  "' is neither a readable file nor a bitstring");
    }
  }
  if (bits.empty()) throw std::invalid_argument("--truth-key: empty key");
  return bits;
}

// Builds the self-contained AttackJobSpec: netlists are inlined as canonical
// BENCH text (Verilog inputs are converted), so the same spec means the same
// job whether it runs here, inside a muxlinkd worker or on a fleet backend.
// Flags a front end does not allow read as absent and leave their defaults.
inline core::AttackJobSpec spec_from_args(const CliArgs& args, const std::string& attack_name,
                                          const netlist::Netlist& locked) {
  core::AttackJobSpec spec;
  spec.attack = attack_name;
  spec.circuit = locked.name();
  spec.bench = netlist::write_bench(locked);
  spec.hops = static_cast<int>(args.get_long("hops", 3));
  if (attack_name == "muxlink") spec.threshold = args.get_double("th", 0.01);
  spec.epochs = static_cast<int>(args.get_long("epochs", 30));
  spec.learning_rate = args.get_double("lr", 1e-3);
  spec.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  spec.scheme = args.get_or("scheme", "");
  if (!spec.scheme.empty()) locking::resolve_scheme(spec.scheme);
  spec.zoo_dir = args.get_or("zoo-dir", "");
  spec.use_zoo = args.has("zoo") || args.has("zoo-dir");
  spec.score_cache = !args.has("no-score-cache");
  if (const auto truth = args.get("truth-key")) {
    const auto bits = read_truth_key(*truth);
    spec.truth_key.reserve(bits.size());
    for (const auto b : bits) spec.truth_key.push_back(b != 0 ? '1' : '0');
  }
  if (const auto orig = args.get("orig")) {
    spec.orig_bench = netlist::write_bench(read_design(*orig));
  }
  spec.hd_patterns = static_cast<std::size_t>(args.get_long("patterns", 10000));
  return spec;
}

}  // namespace muxlink::tools
