// Defense x attack campaign matrix (ROADMAP scenario matrix).
//
// Sweeps scheme x circuit x key-size x attack, producing one muxlink.run/v1
// manifest per cell plus one aggregate manifest with the AC/PC/KPA/HD
// resilience table (rendered into EXPERIMENTS.md by `report_md --campaign`).
//
// Determinism contract: the aggregate manifest contains only data that is
// invariant to worker count and wall clock — per-cell metrics (themselves
// thread-count invariant by the engine contract), the sweep configuration,
// and build provenance. Stage timings, serving stats and observability
// snapshots live in the per-cell manifests only, and the aggregate pins
// threads = 1, so rerunning the same sweep at any --workers value writes a
// byte-identical aggregate. Resume rebuilds cells from their persisted
// manifests (JSON doubles round-trip exactly), which therefore also cannot
// perturb the aggregate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_manifest.h"

namespace muxlink::eval {

struct CampaignOptions {
  std::vector<std::string> schemes = {"dmux", "symmetric", "simll", "deceptive"};
  std::vector<std::string> circuits = {"c432", "c880"};
  std::vector<std::string> attacks = {"muxlink", "untangle"};  // front-ends
  std::size_t key_bits = 16;
  double circuit_scale = 1.0;  // circuitgen scale factor (CPU budget)
  std::uint64_t seed = 1;

  // Attack knobs forwarded to every cell (core::MuxLinkOptions subset).
  int hops = 2;
  double threshold = 0.01;
  int epochs = 10;
  double learning_rate = 1e-3;
  std::size_t max_train_links = 100000;
  std::size_t hd_patterns = 2000;  // simulation patterns for the HD column

  // Zoo reuse across cells: MuxLink and UNTANGLE cells over the same locked
  // circuit share one trained entry (same target set on 1-level schemes).
  bool use_zoo = false;
  std::string zoo_dir;

  // Skip cells whose per-cell manifest already exists and parses; the
  // aggregate is rebuilt from the persisted numbers.
  bool resume = false;

  std::string out_dir = "campaign";

  // Fleet mode (DESIGN.md §14): non-empty = each cell's attack runs as an
  // AttackJobSpec dispatched through the fleet coordinator to these
  // muxlinkd backends; AC/PC/KPA/HD are computed locally from the returned
  // key, so the aggregate stays byte-identical to a no-fleet run (both
  // paths execute the same spec; the PR 9 job contract makes the result
  // location-invariant).
  std::vector<std::string> fleet_backends;
  std::string fleet_spool_dir;     // durable results spool ("" = none)
  int fleet_hedge_after_ms = 0;    // straggler hedging (0 = off)
  int fleet_max_attempts = 4;
  int fleet_retry_budget = 64;
  long fleet_dispatch_timeout_ms = 0;  // per-dispatch failover deadline (0 = none)
  bool fleet_local_fallback = true;    // degrade to in-process when all ejected
};

struct CampaignCell {
  std::string scheme;
  std::string circuit;
  std::string attack;
  std::size_t key_bits = 0;  // achieved key size
  double accuracy_percent = 0.0;
  double precision_percent = 0.0;
  double kpa_percent = 0.0;
  double hd_percent = 0.0;
  std::size_t decided = 0;
  std::size_t undecided = 0;
  bool resumed = false;  // loaded from an existing per-cell manifest
  std::string manifest_path;
};

struct CampaignResult {
  std::vector<CampaignCell> cells;  // scheme-major, then circuit, then attack
  common::RunManifest aggregate;
  std::string aggregate_path;
  std::size_t resumed_cells = 0;
};

// Runs the sweep on the current thread pool (one cell per chunk; idle pool
// threads join the cells' inner parallel_fors). Cell manifests are written
// atomically as each cell finishes — a crash mid-sweep (fault site
// `campaign.cell`) leaves a resumable prefix. Throws std::invalid_argument
// for unknown scheme or attack names before any cell runs.
CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace muxlink::eval
