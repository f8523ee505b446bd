#include "muxlink/job.h"

#include <chrono>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>

#include "attacks/metrics.h"
#include "common/fault.h"
#include "common/run_manifest.h"
#include "locking/schemes.h"
#include "muxlink/attack.h"
#include "muxlink/untangle.h"
#include "netlist/bench_io.h"
#include "sim/simulator.h"

namespace muxlink::core {

namespace {

// The only two front-ends a job may name; validated on both serialization
// ends so a bad spec fails before any work is queued.
void validate_attack_name(const std::string& attack) {
  if (attack != "muxlink" && attack != "untangle") {
    throw std::invalid_argument("unknown attack '" + attack + "' (valid: muxlink, untangle)");
  }
}

std::vector<std::uint8_t> parse_truth_bits(const std::string& text) {
  std::vector<std::uint8_t> bits;
  bits.reserve(text.size());
  for (char c : text) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument("truth_key: expected a 0/1 bitstring, got '" + text + "'");
    }
    bits.push_back(static_cast<std::uint8_t>(c - '0'));
  }
  return bits;
}

// Average HD% between `orig` and `recovered` following the paper's Fig. 8
// protocol: undeciphered key bits leave free `keyinput*` inputs in
// `recovered`; the HD is averaged over completions of those bits
// (enumerated up to 2^4, sampled beyond).
double recovered_hd_percent(const netlist::Netlist& orig, const netlist::Netlist& recovered,
                            std::size_t patterns, std::uint64_t seed) {
  sim::HammingOptions hopts;
  hopts.num_patterns = patterns;
  // The undecided key inputs are whatever inputs the recovered design has
  // beyond the original's (find_key_inputs needs contiguous indices, which
  // a partially recovered design no longer has).
  std::vector<std::string> free_keys;
  for (netlist::GateId g : recovered.inputs()) {
    const std::string_view name = recovered.gate(g).name;
    if (name.starts_with("keyinput")) free_keys.emplace_back(name);
  }
  if (free_keys.empty()) return sim::hamming_distance_percent(orig, recovered, hopts);
  const std::size_t n = free_keys.size();
  const bool enumerate = n <= 4;
  const std::size_t completions = enumerate ? (std::size_t{1} << n) : 16;
  std::mt19937_64 rng(seed);
  double sum = 0.0;
  for (std::size_t c = 0; c < completions; ++c) {
    hopts.extra_inputs_b.clear();
    const std::uint64_t bits = enumerate ? c : rng();
    for (std::size_t i = 0; i < n; ++i) {
      hopts.extra_inputs_b.emplace_back(free_keys[i], ((bits >> i) & 1) != 0);
    }
    sum += sim::hamming_distance_percent(orig, recovered, hopts);
  }
  return sum / static_cast<double>(completions);
}

}  // namespace

std::string render_key(const std::vector<locking::KeyBit>& key) {
  std::string s;
  s.reserve(key.size());
  for (locking::KeyBit b : key) s.push_back(locking::to_char(b));
  return s;
}

std::vector<locking::KeyBit> parse_key(const std::string& text) {
  std::vector<locking::KeyBit> key;
  key.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '0': key.push_back(locking::KeyBit::kZero); break;
      case '1': key.push_back(locking::KeyBit::kOne); break;
      case 'X': key.push_back(locking::KeyBit::kUnknown); break;
      default:
        throw std::invalid_argument(std::string("deciphered key: unexpected character '") + c +
                                    "' (expected 0/1/X)");
    }
  }
  return key;
}

common::Json AttackJobSpec::to_json() const {
  validate_attack_name(attack);
  common::Json j = common::Json::object();
  j["attack"] = attack;
  j["circuit"] = circuit;
  j["bench"] = bench;
  j["hops"] = hops;
  j["threshold"] = threshold;
  j["epochs"] = epochs;
  j["learning_rate"] = learning_rate;
  j["max_train_links"] = static_cast<std::int64_t>(max_train_links);
  j["seed"] = static_cast<std::int64_t>(seed);
  j["scheme"] = scheme;
  j["use_zoo"] = use_zoo;
  j["zoo_dir"] = zoo_dir;
  j["score_cache"] = score_cache;
  j["truth_key"] = truth_key;
  j["orig_bench"] = orig_bench;
  j["hd_patterns"] = static_cast<std::int64_t>(hd_patterns);
  j["timeout_seconds"] = timeout_seconds;
  return j;
}

AttackJobSpec AttackJobSpec::from_json(const common::Json& j) {
  if (!j.is_object()) throw std::invalid_argument("job spec: expected a JSON object");
  static const std::set<std::string> known = {
      "attack",     "circuit",     "bench",      "hops",        "threshold",  "epochs",
      "learning_rate", "max_train_links", "seed", "scheme",     "use_zoo",    "zoo_dir",
      "score_cache", "truth_key",  "orig_bench", "hd_patterns", "timeout_seconds"};
  for (const auto& [key, value] : j.members()) {
    if (!known.contains(key)) throw std::invalid_argument("job spec: unknown key '" + key + "'");
  }
  auto str = [&](const char* key, const std::string& fallback) {
    const common::Json* v = j.find(key);
    if (!v) return fallback;
    if (!v->is_string()) throw std::invalid_argument(std::string("job spec: '") + key + "' must be a string");
    return v->as_string();
  };
  auto num = [&](const char* key, double fallback) {
    const common::Json* v = j.find(key);
    if (!v) return fallback;
    if (!v->is_number()) throw std::invalid_argument(std::string("job spec: '") + key + "' must be a number");
    return v->as_double();
  };
  // Counts and budgets must arrive as JSON integers within range: a double
  // or a negative value would otherwise wrap or truncate in the cast.
  auto integer = [&](const char* key, std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
    const common::Json* v = j.find(key);
    if (!v) return fallback;
    if (!v->is_int() || v->as_int() < lo || v->as_int() > hi) {
      throw std::invalid_argument(std::string("job spec: '") + key + "' must be an integer in [" +
                                  std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return v->as_int();
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kCountMax = std::numeric_limits<std::int64_t>::max();
  auto boolean = [&](const char* key, bool fallback) {
    const common::Json* v = j.find(key);
    if (!v) return fallback;
    if (!v->is_bool()) throw std::invalid_argument(std::string("job spec: '") + key + "' must be a bool");
    return v->as_bool();
  };

  AttackJobSpec spec;
  spec.attack = str("attack", spec.attack);
  validate_attack_name(spec.attack);
  spec.circuit = str("circuit", spec.circuit);
  spec.bench = str("bench", spec.bench);
  if (spec.bench.empty()) throw std::invalid_argument("job spec: 'bench' must hold BENCH text");
  spec.hops = static_cast<int>(integer("hops", spec.hops, 1, kIntMax));
  spec.threshold = num("threshold", spec.threshold);
  spec.epochs = static_cast<int>(integer("epochs", spec.epochs, 1, kIntMax));
  spec.learning_rate = num("learning_rate", spec.learning_rate);
  spec.max_train_links = static_cast<std::size_t>(
      integer("max_train_links", static_cast<std::int64_t>(spec.max_train_links), 0, kCountMax));
  // to_json writes seeds >= 2^63 as negative int64, so any integer is valid.
  spec.seed = static_cast<std::uint64_t>(integer("seed", static_cast<std::int64_t>(spec.seed),
                                                 std::numeric_limits<std::int64_t>::min(),
                                                 std::numeric_limits<std::int64_t>::max()));
  spec.scheme = str("scheme", spec.scheme);
  spec.use_zoo = boolean("use_zoo", spec.use_zoo);
  spec.zoo_dir = str("zoo_dir", spec.zoo_dir);
  spec.score_cache = boolean("score_cache", spec.score_cache);
  spec.truth_key = str("truth_key", spec.truth_key);
  spec.orig_bench = str("orig_bench", spec.orig_bench);
  spec.hd_patterns = static_cast<std::size_t>(
      integer("hd_patterns", static_cast<std::int64_t>(spec.hd_patterns), 0, kCountMax));
  spec.timeout_seconds = num("timeout_seconds", spec.timeout_seconds);
  return spec;
}

MuxLinkOptions job_options(const AttackJobSpec& spec) {
  validate_attack_name(spec.attack);
  if (!spec.scheme.empty()) locking::resolve_scheme(spec.scheme);
  MuxLinkOptions opts;
  opts.hops = spec.hops;
  opts.threshold = spec.threshold;
  opts.epochs = spec.epochs;
  opts.learning_rate = spec.learning_rate;
  opts.max_train_links = spec.max_train_links;
  opts.seed = spec.seed;
  opts.scheme = spec.scheme;
  opts.use_zoo = spec.use_zoo;
  opts.zoo_dir = spec.zoo_dir;
  opts.score_cache = spec.score_cache;
  return opts;
}

AttackJobOutcome run_attack_job(const AttackJobSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const MuxLinkOptions opts = job_options(spec);
  const netlist::Netlist locked =
      netlist::parse_bench(spec.bench, spec.circuit.empty() ? "job" : spec.circuit);
  AttackJobOutcome out = run_attack_job(locked, spec, opts);
  out.total_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

AttackJobOutcome run_attack_job(const netlist::Netlist& locked, const AttackJobSpec& spec,
                                const MuxLinkOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  AttackJobOutcome out;
  double best_val = 0.0;
  std::size_t training_links = 0, target_links = 0, routing_queries = 0;
  // Both front-ends report the same figures from their own result type.
  auto take = [&](auto& r) {
    out.key = std::move(r.key);
    best_val = r.training.best_val_accuracy;
    training_links = r.training_links;
    target_links = r.target_links;
    out.sample_seconds = r.sample_seconds;
    out.train_seconds = r.train_seconds;
    out.score_seconds = r.score_seconds;
    out.threads = r.threads;
    out.sortpool_k = r.sortpool_k;
    out.feature_dim = r.feature_dim;
    out.rollbacks = r.training.rollbacks;
    out.resumed_from_epoch = r.training.resumed_from_epoch;
    out.serving = std::move(r.serving);
  };
  if (spec.attack == "muxlink") {
    MuxLinkResult r = MuxLinkAttack(opts).run(locked);
    take(r);
  } else {
    UntangleResult r = UntangleAttack(opts).run(locked);
    routing_queries = r.queries.size();
    take(r);
  }
  out.key_string = render_key(out.key);

  // Fires between the attack finishing and the manifest existing — a kill
  // here is the "daemon died mid-job" drill (DESIGN.md §13): no partial
  // manifest can ever be observed, the client retries against a restarted
  // daemon and must get byte-identical output.
  MUXLINK_FAULT_POINT("daemon.job");

  std::optional<attacks::KeyPredictionScore> score;
  if (!spec.truth_key.empty()) {
    const auto bits = parse_truth_bits(spec.truth_key);
    if (bits.size() != out.key.size()) {
      throw std::invalid_argument("truth_key length " + std::to_string(bits.size()) + " != " +
                                  std::to_string(out.key.size()) + " deciphered bits");
    }
    score = attacks::score_key(bits, out.key);
  }
  std::optional<double> hd;
  if (!spec.orig_bench.empty()) {
    const netlist::Netlist orig = netlist::parse_bench(spec.orig_bench, "orig");
    const netlist::Netlist recovered = recover_design(locked, out.key);
    hd = recovered_hd_percent(orig, recovered, spec.hd_patterns, spec.seed);
  }

  // Deterministic manifest: scheduling-invariant fields only (job.h). The
  // tool string names the equivalent one-shot CLI invocation, so the same
  // spec produces the same bytes whichever entry point ran it.
  common::RunManifest m = common::make_run_manifest("muxlink " + spec.attack);
  m.threads = 1;
  m.seed = spec.seed;
  m.circuit = locked.name();
  m.scheme = spec.scheme;
  m.key_bits = static_cast<std::int64_t>(out.key.size());
  m.add_result("best_val_accuracy", best_val);
  m.add_result("training_links", static_cast<double>(training_links));
  m.add_result("target_links", static_cast<double>(target_links));
  if (spec.attack == "untangle") {
    m.add_result("routing_queries", static_cast<double>(routing_queries));
  }
  std::size_t undecided = 0;
  for (locking::KeyBit b : out.key) undecided += b == locking::KeyBit::kUnknown ? 1 : 0;
  m.add_result("key_bits_decided", static_cast<double>(out.key.size() - undecided));
  m.add_result("key_bits_undecided", static_cast<double>(undecided));
  if (score) {
    m.add_result("accuracy_percent", score->accuracy_percent());
    m.add_result("precision_percent", score->precision_percent());
    m.add_result("kpa_percent", score->kpa_percent());
  }
  if (hd) m.add_result("hd_percent", *hd);
  common::Json extra = common::Json::object();
  extra["attack"] = spec.attack;
  extra["hops"] = spec.hops;
  if (spec.attack == "muxlink") extra["threshold"] = spec.threshold;
  extra["epochs"] = spec.epochs;
  extra["learning_rate"] = spec.learning_rate;
  extra["max_train_links"] = static_cast<std::int64_t>(spec.max_train_links);
  extra["deciphered_key"] = out.key_string;
  if (!spec.truth_key.empty()) extra["truth_key"] = spec.truth_key;
  m.extra = std::move(extra);
  out.manifest = m.to_json();
  out.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

}  // namespace muxlink::core
