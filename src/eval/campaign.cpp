#include "eval/campaign.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "attacks/metrics.h"
#include "circuitgen/suites.h"
#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "fleet/coordinator.h"
#include "locking/resolve.h"
#include "locking/schemes.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"

namespace muxlink::eval {

namespace fs = std::filesystem;

namespace {

struct CellSpec {
  std::string scheme;
  std::string circuit;
  std::string attack;
};

std::string join(const std::vector<std::string>& parts) {
  std::string s;
  for (const auto& p : parts) {
    if (!s.empty()) s += ",";
    s += p;
  }
  return s;
}

std::optional<double> result_of(const common::RunManifest& m, const std::string& name) {
  for (const auto& [k, v] : m.results) {
    if (k == name) return v;
  }
  return std::nullopt;
}

// Where a cell's attack actually executes: in-process (core::run_attack_job)
// or on a fleet backend. Both consume the same AttackJobSpec, so the key —
// and therefore every aggregate metric — is identical either way (the PR 9
// determinism contract makes the job location-invariant).
using CellExec = std::function<core::AttackJobOutcome(const core::AttackJobSpec&)>;

// Loads a previously written cell manifest; nullopt when it is missing,
// torn, or lacks any of the metrics the aggregate needs (then the cell
// simply reruns).
std::optional<CampaignCell> load_cell(const CellSpec& spec, const fs::path& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::stringstream ss;
  ss << is.rdbuf();
  common::RunManifest m;
  try {
    m = common::RunManifest::from_json(common::Json::parse(ss.str()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (m.circuit != spec.circuit || m.scheme != spec.scheme) return std::nullopt;
  CampaignCell cell;
  cell.scheme = spec.scheme;
  cell.circuit = spec.circuit;
  cell.attack = spec.attack;
  cell.key_bits = m.key_bits >= 0 ? static_cast<std::size_t>(m.key_bits) : 0;
  const auto ac = result_of(m, "accuracy_percent");
  const auto pc = result_of(m, "precision_percent");
  const auto kpa = result_of(m, "kpa_percent");
  const auto hd = result_of(m, "hd_percent");
  const auto dec = result_of(m, "key_bits_decided");
  const auto undec = result_of(m, "key_bits_undecided");
  if (!ac || !pc || !kpa || !hd || !dec || !undec) return std::nullopt;
  cell.accuracy_percent = *ac;
  cell.precision_percent = *pc;
  cell.kpa_percent = *kpa;
  cell.hd_percent = *hd;
  cell.decided = static_cast<std::size_t>(*dec);
  cell.undecided = static_cast<std::size_t>(*undec);
  cell.resumed = true;
  cell.manifest_path = path.string();
  return cell;
}

CampaignCell run_cell(const CellSpec& spec, const CampaignOptions& opts, const fs::path& path,
                      const CellExec& exec) {
  const auto t_total = std::chrono::steady_clock::now();
  const auto original = circuitgen::make_benchmark(spec.circuit, opts.circuit_scale);
  locking::MuxLockOptions lopts;
  lopts.key_bits = opts.key_bits;
  lopts.seed = opts.seed;
  lopts.allow_partial = true;  // small circuits take what fits; the cell records it
  const auto design = locking::resolve_scheme(spec.scheme)(original, lopts);

  // The attack travels as an AttackJobSpec: locked netlist as BENCH text,
  // no ground truth (the truth key never leaves this process — AC/PC/KPA
  // and the paper's HD protocol are computed locally from the returned
  // key, which also keeps the job-runner's HD variant out of the cell).
  core::AttackJobSpec jspec;
  jspec.attack = spec.attack;
  jspec.circuit = spec.circuit;
  jspec.bench = netlist::write_bench(design.netlist);
  jspec.hops = opts.hops;
  jspec.threshold = opts.threshold;
  jspec.epochs = opts.epochs;
  jspec.learning_rate = opts.learning_rate;
  jspec.max_train_links = opts.max_train_links;
  jspec.seed = opts.seed;
  jspec.scheme = spec.scheme;
  jspec.use_zoo = opts.use_zoo;
  jspec.zoo_dir = opts.zoo_dir;

  const core::AttackJobOutcome outcome = exec(jspec);
  const std::vector<locking::KeyBit>& key = outcome.key;
  if (key.size() != design.key.size()) {
    throw std::runtime_error("campaign cell returned " + std::to_string(key.size()) +
                             " key bits, expected " + std::to_string(design.key.size()));
  }
  const double training_links =
      outcome.manifest.at("results").number_or("training_links", 0.0);
  const double target_links = outcome.manifest.at("results").number_or("target_links", 0.0);

  const auto score = attacks::score_key(design.key, key);
  locking::HdOptions hopts;
  hopts.num_patterns = opts.hd_patterns;
  hopts.seed = opts.seed;
  const double hd = locking::average_hd_percent(original, design, key, hopts);

  CampaignCell cell;
  cell.scheme = spec.scheme;
  cell.circuit = spec.circuit;
  cell.attack = spec.attack;
  cell.key_bits = design.key.size();
  cell.accuracy_percent = score.accuracy_percent();
  cell.precision_percent = score.precision_percent();
  cell.kpa_percent = score.kpa_percent();
  cell.hd_percent = hd;
  cell.decided = score.correct + score.wrong;
  cell.undecided = score.undecided;
  cell.manifest_path = path.string();

  common::RunManifest m = common::make_run_manifest("muxlink campaign-cell");
  m.seed = opts.seed;
  m.circuit = spec.circuit;
  m.scheme = spec.scheme;
  m.key_bits = static_cast<std::int64_t>(design.key.size());
  m.add_stage("total", std::chrono::duration<double>(std::chrono::steady_clock::now() - t_total)
                           .count());
  m.add_result("accuracy_percent", cell.accuracy_percent);
  m.add_result("precision_percent", cell.precision_percent);
  m.add_result("kpa_percent", cell.kpa_percent);
  m.add_result("hd_percent", cell.hd_percent);
  m.add_result("key_bits_decided", static_cast<double>(cell.decided));
  m.add_result("key_bits_undecided", static_cast<double>(cell.undecided));
  m.add_result("training_links", training_links);
  m.add_result("target_links", target_links);
  common::Json extra = common::Json::object();
  extra["attack"] = spec.attack;
  extra["hops"] = opts.hops;
  extra["threshold"] = opts.threshold;
  extra["epochs"] = opts.epochs;
  extra["circuit_scale"] = opts.circuit_scale;
  extra["deciphered_key"] = outcome.key_string;
  extra["truth_key"] = design.key_string();
  m.extra = std::move(extra);
  common::atomic_write_file(path, m.to_json().dump_pretty() + "\n");
  return cell;
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& opts) {
  MUXLINK_TRACE("campaign");
  // Validate every name before the first (expensive) cell runs.
  for (const auto& s : opts.schemes) locking::resolve_scheme(s);
  for (const auto& a : opts.attacks) {
    if (a != "muxlink" && a != "untangle") {
      throw std::invalid_argument("unknown attack '" + a + "' (valid: muxlink, untangle)");
    }
  }
  if (opts.schemes.empty() || opts.circuits.empty() || opts.attacks.empty()) {
    throw std::invalid_argument("campaign: schemes, circuits and attacks must be non-empty");
  }

  std::vector<CellSpec> specs;
  for (const auto& s : opts.schemes) {
    for (const auto& c : opts.circuits) {
      for (const auto& a : opts.attacks) specs.push_back({s, c, a});
    }
  }

  const fs::path out_dir(opts.out_dir);
  fs::create_directories(out_dir);
  auto cell_path = [&](const CellSpec& spec) {
    return out_dir / (spec.scheme + "-" + spec.circuit + "-k" + std::to_string(opts.key_bits) +
                      "-" + spec.attack + ".json");
  };

  CampaignResult result;
  result.cells.resize(specs.size());
  std::vector<char> resumed(specs.size(), 0);

  // Cell executor: in-process by default; through the fleet coordinator
  // when backends are configured. Identical specs either way, so the
  // aggregate bytes cannot depend on which path ran (campaign.h).
  std::unique_ptr<fleet::FleetCoordinator> coord;
  CellExec exec;
  if (opts.fleet_backends.empty()) {
    exec = [](const core::AttackJobSpec& jspec) { return core::run_attack_job(jspec); };
  } else {
    fleet::FleetOptions fopts;
    fopts.backends = opts.fleet_backends;
    fopts.max_attempts_per_job = opts.fleet_max_attempts;
    fopts.retry_budget = opts.fleet_retry_budget;
    fopts.dispatch_timeout_ms = opts.fleet_dispatch_timeout_ms;
    fopts.allow_local_fallback = opts.fleet_local_fallback;
    coord = std::make_unique<fleet::FleetCoordinator>(fopts);
    coord->start();
    exec = [&coord](const core::AttackJobSpec& jspec) {
      const fleet::FleetJobResult r = coord->run(jspec);
      if (!r.ok) throw std::runtime_error("fleet cell failed: " + r.error);
      core::AttackJobOutcome out;
      out.manifest = r.manifest;
      out.key_string = r.key_string;
      out.key = core::parse_key(r.key_string);
      return out;
    };
  }

  // One cell per chunk: cells run concurrently on the current pool, and pool
  // threads no cell occupies join the cells' inner parallel_fors. Results
  // land by index, and every cell is internally thread-count invariant, so
  // the sweep output does not depend on the worker count. The fault point
  // fires after each cell's manifest is on disk — an injected crash leaves a
  // clean prefix for --resume.
  common::parallel_for(specs.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      const CellSpec& spec = specs[i];
      const fs::path path = cell_path(spec);
      std::optional<CampaignCell> cell;
      if (opts.resume) cell = load_cell(spec, path);
      if (cell) {
        resumed[i] = 1;
      } else {
        cell = run_cell(spec, opts, path, exec);
      }
      result.cells[i] = std::move(*cell);
      MUXLINK_COUNTER_ADD("campaign.cells", 1);
      MUXLINK_FAULT_POINT("campaign.cell");
    }
  });
  for (const char r : resumed) result.resumed_cells += r != 0 ? 1 : 0;

  // Aggregate manifest: worker-count and wall-clock invariant by
  // construction (campaign.h) — cell metrics only, threads pinned to 1, no
  // stage timings, no observability snapshot.
  common::RunManifest agg = common::make_run_manifest("muxlink campaign");
  agg.threads = 1;
  agg.seed = opts.seed;
  agg.circuit = join(opts.circuits);
  agg.scheme = join(opts.schemes);
  agg.key_bits = static_cast<std::int64_t>(opts.key_bits);
  double sum_ac = 0.0, sum_kpa = 0.0, sum_hd = 0.0;
  common::Json cells = common::Json::array();
  for (const CampaignCell& c : result.cells) {
    sum_ac += c.accuracy_percent;
    sum_kpa += c.kpa_percent;
    sum_hd += c.hd_percent;
    common::Json j = common::Json::object();
    j["scheme"] = c.scheme;
    j["circuit"] = c.circuit;
    j["attack"] = c.attack;
    j["key_bits"] = static_cast<long long>(c.key_bits);
    j["accuracy_percent"] = c.accuracy_percent;
    j["precision_percent"] = c.precision_percent;
    j["kpa_percent"] = c.kpa_percent;
    j["hd_percent"] = c.hd_percent;
    j["key_bits_decided"] = static_cast<long long>(c.decided);
    j["key_bits_undecided"] = static_cast<long long>(c.undecided);
    cells.push_back(std::move(j));
  }
  const double n = static_cast<double>(result.cells.size());
  agg.add_result("cells", n);
  agg.add_result("mean_accuracy_percent", sum_ac / n);
  agg.add_result("mean_kpa_percent", sum_kpa / n);
  agg.add_result("mean_hd_percent", sum_hd / n);
  common::Json extra = common::Json::object();
  extra["attacks"] = join(opts.attacks);
  extra["hops"] = opts.hops;
  extra["threshold"] = opts.threshold;
  extra["epochs"] = opts.epochs;
  extra["circuit_scale"] = opts.circuit_scale;
  extra["cells"] = std::move(cells);
  agg.extra = std::move(extra);

  const fs::path agg_path = out_dir / "campaign.json";
  common::atomic_write_file(agg_path, agg.to_json().dump_pretty() + "\n");
  result.aggregate = std::move(agg);
  result.aggregate_path = agg_path.string();
  return result;
}

}  // namespace muxlink::eval
