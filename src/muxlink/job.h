// Library-level attack jobs: one self-contained description of an attack
// run (netlist text + every knob that affects its result) and the runner
// that performs and scores it, producing a DETERMINISTIC muxlink.run/v1
// manifest.
//
// This is the only place an attack is run and scored. It is the unit of
// work `muxlinkd` schedules (DESIGN.md §13), and the contract behind the
// daemon acceptance test: the same AttackJobSpec run through the daemon at
// any worker count, through `muxlink submit`, or through one-shot `muxlink
// attack --deterministic` writes byte-identical manifest JSON. To make that
// possible the deterministic manifest carries only scheduling-invariant data
// — no stage wall times, no observability snapshot, no serving/cache
// statistics, no CPU info — and pins threads to 1 (the attack itself is
// bit-identical at any thread count, DESIGN.md §5). Plain `muxlink attack`
// and `muxlink untangle` run the same runner and write a superset of that
// manifest: the observational figures of AttackJobOutcome on top.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "locking/resolve.h"
#include "muxlink/attack.h"
#include "netlist/netlist.h"

namespace muxlink::core {

// Everything a worker needs to run one attack, with no filesystem
// references: netlists travel as BENCH text so a job means the same thing
// on every host. JSON round-trip is exact (to_json/from_json are inverses
// for valid specs); from_json rejects unknown attacks, malformed fields and
// trailing unknown keys so a daemon never half-understands a job.
struct AttackJobSpec {
  std::string attack = "muxlink";  // "muxlink" | "untangle"
  std::string circuit;             // circuit name recorded in the manifest
  std::string bench;               // locked netlist, BENCH text

  // Attack knobs (core::MuxLinkOptions subset; defaults mirror the CLI).
  int hops = 3;
  double threshold = 0.01;  // MuxLink δ threshold; ignored by untangle
  int epochs = 30;
  double learning_rate = 1e-3;
  std::size_t max_train_links = 100000;
  std::uint64_t seed = 1;
  std::string scheme;  // locking-scheme label ("" = unknown)

  // Serving (DESIGN.md §11). zoo_dir resolution happens where the job RUNS
  // (the daemon substitutes its own --zoo-dir when this is empty).
  bool use_zoo = false;
  std::string zoo_dir;
  bool score_cache = true;

  // Optional evaluation against ground truth: AC/PC/KPA when `truth_key`
  // (a 0/1 bitstring) is set, recovered-design HD% when `orig_bench` holds
  // the original design's BENCH text.
  std::string truth_key;
  std::string orig_bench;
  std::size_t hd_patterns = 10000;

  // Wall-clock budget enforced by the daemon scheduler (0 = none). Part of
  // the spec (not the manifest): it never changes the computed result, only
  // whether the daemon reports it (DESIGN.md §13 job lifecycle).
  double timeout_seconds = 0.0;

  common::Json to_json() const;
  // Throws std::invalid_argument on unknown attack names, unknown keys,
  // type-mismatched fields, or counts (hops, epochs, max_train_links,
  // hd_patterns) that are not in-range JSON integers.
  static AttackJobSpec from_json(const common::Json& j);
};

struct AttackJobOutcome {
  common::Json manifest;             // deterministic muxlink.run/v1 document
  std::vector<locking::KeyBit> key;  // deciphered key, indexed by key bit
  std::string key_string;            // same, rendered 0/1/X

  // Observational figures of the run. None of them enter the manifest: they
  // vary with scheduling, thread count and what the zoo already holds.
  double sample_seconds = 0.0;
  double train_seconds = 0.0;
  double score_seconds = 0.0;
  double total_seconds = 0.0;  // wall time of the whole job
  int threads = 1;             // pool size the attack used
  int sortpool_k = 0;
  int feature_dim = 0;
  int rollbacks = 0;           // divergence rollbacks during training
  int resumed_from_epoch = 0;  // > 0 when training resumed from a checkpoint
  ServingStats serving;
};

// The engine options a job spec stands for. Throws std::invalid_argument on
// an unknown attack name or scheme label (the label is folded into zoo keys,
// so an unknown name would silently shard the registry).
MuxLinkOptions job_options(const AttackJobSpec& spec);

// Runs `spec.attack` on the already-parsed `locked` netlist with `opts` (the
// spec's own options plus any run-local ones: telemetry, checkpoints,
// warm start, model output), then scores the key against `spec.truth_key`
// and `spec.orig_bench`. `spec.bench` is not read. Runs on the calling
// thread (inner stages use the global pool). Throws std::invalid_argument
// on a truth-key length mismatch and netlist::NetlistError on trace
// failures. Fault site `daemon.job` fires between the attack finishing and
// the manifest being assembled; arming it with `kill` simulates a daemon
// dying mid-job (DESIGN.md §8/§13).
AttackJobOutcome run_attack_job(const netlist::Netlist& locked, const AttackJobSpec& spec,
                                const MuxLinkOptions& opts);

// The self-contained job: parses `spec.bench` and runs it with
// job_options(spec). Also throws netlist::NetlistError on BENCH failures.
AttackJobOutcome run_attack_job(const AttackJobSpec& spec);

// Renders a deciphered key as the 0/1/X string used everywhere.
std::string render_key(const std::vector<locking::KeyBit>& key);

// Inverse of render_key: parses a 0/1/X string (as carried in RESULT_OK
// "key" replies and manifest "deciphered_key" fields) back into key bits.
// Throws std::invalid_argument on any other character.
std::vector<locking::KeyBit> parse_key(const std::string& text);

}  // namespace muxlink::core
