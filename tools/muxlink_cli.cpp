// muxlink — command-line front end for the whole tool chain.
//
//   muxlink gen <benchmark> [--scale S] [--out file.bench]
//   muxlink stats <file.bench>
//   muxlink lock <file.bench> --scheme dmux|symmetric|simll|deceptive|
//                                      naive|xor|trll
//                [--key-bits N] [--seed S] [--out locked.bench]
//                [--key-out key.txt] [--allow-partial]
//   muxlink attack <locked.bench> [--hops H] [--th T] [--epochs E]
//                  [--lr L] [--links N] [--seed S]
//                  [--key-out key.txt] [--recover out.bench]
//                  [--report run.json] [--telemetry epochs.jsonl]
//                  [--truth-key key.txt|BITS] [--orig orig.bench]
//                  [--scheme LABEL] [--patterns N]
//                  [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//                  [--clip-grad X] [--save-model model.mzb] [--simd MODE]
//                  [--zoo] [--zoo-dir D] [--warm-start REF]
//                  [--warm-epochs N] [--warm-lr-scale X] [--no-score-cache]
//   muxlink untangle <locked.bench>  (UNTANGLE-style routing-query mode;
//                  same flags as attack minus --th / checkpointing)
//   muxlink campaign [--schemes A,B] [--circuits X,Y] [--attacks M,N]
//                  [--key-bits N] [--scale S] [--seed S] [--hops H]
//                  [--th T] [--epochs E] [--lr L] [--links N]
//                  [--hd-patterns N] [--workers W] [--out-dir D]
//                  [--zoo] [--zoo-dir D] [--resume] [--report F]
//   muxlink zoo list|info|gc|pin|unpin [<key>] [--zoo-dir D]
//                  [--max-bytes N]
//   muxlink saam <locked.bench>
//   muxlink scope <locked.bench>
//   muxlink hd <a.bench> <b.bench> [--patterns N] [--key BITSTRING]
//   muxlink submit <locked.bench> [--attack muxlink|untangle]
//                  [attack flags] [--timeout S] [--daemon ADDR] [--wait]
//                  [--report F] [--key-out F]
//   muxlink status <job-id> [--daemon ADDR]
//   muxlink result <job-id> [--daemon ADDR] [--wait] [--report F]
//                  [--key-out F]
//   muxlink cancel <job-id> [--daemon ADDR]
//   muxlink daemon stats|shutdown [--daemon ADDR]
//
// Exit-code taxonomy (DESIGN.md §8):
//   0 success
//   1 CLI misuse (unknown flag, bad argument)
//   2 other processing errors (including a submitted job reporting failure)
//   3 input parse/validation errors (BENCH / Verilog / netlist)
//   4 model-file format errors (bad magic/version, CRC mismatch, truncation,
//     a topology the tensors do not hold)
//   5 checkpoint errors (corrupt/torn/incompatible --resume state)
//   6 daemon/protocol errors (MXRPC1 framing violations, unreachable or
//     refusing daemon, version rejection)
#include <fstream>
#include <iostream>

#include "attacks/constprop.h"
#include "attacks/saam.h"
#include "common/cpu_features.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"
#include "daemon/client.h"
#include "gnn/checkpoint.h"
#include "gnn/simd.h"
#include "circuitgen/suites.h"
#include "eval/campaign.h"
#include "eval/table.h"
#include "locking/mux_lock.h"
#include "locking/schemes.h"
#include "muxlink/attack.h"
#include "muxlink/job.h"
#include "netlist/analysis.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "sim/simulator.h"
#include "tools/cli_args.h"
#include "tools/job_spec_args.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"

namespace {

using namespace muxlink;
using tools::CliArgs;
using tools::is_verilog;
using tools::read_design;
using tools::spec_from_args;

void write_design(const netlist::Netlist& nl, const std::string& path) {
  if (is_verilog(path)) {
    netlist::write_verilog_file(nl, path);
  } else {
    netlist::write_bench_file(nl, path);
  }
}

int usage() {
  std::cerr <<
      R"(usage: muxlink <command> [options]

BENCH files by default; *.v / *.sv are read/written as structural Verilog.

commands:
  gen <benchmark> [--scale S] [--out F]        generate a named benchmark
  stats <file.bench>                           structural summary
  lock <file.bench> --scheme X [--key-bits N]  lock a design
       [--seed S] [--out F] [--key-out F] [--allow-partial]
  attack <locked.bench> [--hops H] [--th T]    run the MuxLink attack
       [--epochs E] [--lr L] [--links N] [--seed S]
       [--key-out F] [--recover F] [--threads N]
       [--report F]      write the job's muxlink.run/v1 manifest plus stage
                         timings, metrics snapshot and serving figures to F
       [--telemetry F]   stream per-epoch training telemetry (loss, AUC,
                         grad norm) to F as JSONL
       [--truth-key V]   ground-truth key (file or literal bitstring):
                         adds AC/PC/KPA to the report
       [--orig F]        original design: adds recovered-design HD% to the
                         report (averaged over completions of X bits)
       [--patterns N]    simulation patterns for --orig HD (default 10000)
       [--scheme LABEL]  locking-scheme label recorded in the report
       [--checkpoint-dir D]    write crash-safe training checkpoints into D
       [--checkpoint-every N]  epochs between checkpoint writes (default 1)
       [--resume]        restore training from --checkpoint-dir and finish
                         bit-identical to an uninterrupted run
       [--clip-grad X]   clip each batch's mean gradient to L2 norm <= X
       [--save-model F]  save the trained DGCNN with its Adam moments as an
                         MXZOO1 blob (a valid --warm-start ref)
       [--simd MODE]     training kernel set: auto (default), avx2, scalar;
                         also settable via MUXLINK_SIMD. avx2 errors out on
                         hardware without AVX2+FMA instead of downgrading
       [--zoo]           serve/register trained models in the content-
                         addressed zoo; a repeated run mmaps the stored
                         weights and skips sampling + training entirely
       [--zoo-dir D]     registry directory (default: MUXLINK_ZOO env, else
                         ~/.cache/muxlink/zoo)
       [--warm-start R]  fine-tune from a zoo key or blob file instead of
                         training from scratch (implies --zoo)
       [--warm-epochs N] fine-tuning epoch budget (default epochs/4, min 1)
       [--warm-lr-scale X]  fine-tuning LR = --lr * X (default 0.1)
       [--no-score-cache]   disable the per-link score cache
       [--deterministic] run the self-contained job spec and --report only
                         the DETERMINISTIC manifest (no stage timings, no
                         metrics snapshot; byte-identical to the same job
                         run through muxlinkd at any worker count)
  untangle <locked.bench>                      UNTANGLE-style routing-query
       [--hops H] [--epochs E] [--lr L] ...    mode: per-tree argmax commit,
                                               never abstains; shares the
                                               attack flags minus --th and
                                               checkpointing
  campaign [--schemes A,B] [--circuits X,Y]    defense x attack sweep; one
       [--attacks muxlink,untangle]            manifest per cell + one
       [--key-bits N] [--scale S] [--seed S]   deterministic aggregate
       [--hops H] [--th T] [--epochs E]        (byte-identical for any
       [--lr L] [--links N] [--hd-patterns N]  --workers value)
       [--workers W] [--out-dir D] [--resume]
       [--zoo] [--zoo-dir D] [--report F]
       [--fleet ADDR,ADDR,...]                 dispatch cells to muxlinkd
       [--fleet-max-attempts N]                backends (muxlink-coord
       [--fleet-retry-budget N]                semantics; aggregate stays
       [--fleet-dispatch-timeout-ms N]         byte-identical to a local
       [--fleet-no-local-fallback]             run)
  zoo list [--zoo-dir D]                       registry entries, LRU first
  zoo info <key> [--zoo-dir D]                 one entry's stored metadata
  zoo gc --max-bytes N [--zoo-dir D]           evict LRU entries over budget
  zoo pin|unpin <key> [--zoo-dir D]            protect an entry from gc
  saam <locked.bench>                          structural SAAM attack
  scope <locked.bench>                         unsupervised SCOPE attack
  hd <a.bench> <b.bench> [--patterns N]        output Hamming distance
       [--key BITSTRING] [--threads N]         (key pins for b's keyinputs)

daemon client (MXRPC1 over unix socket or tcp; see muxlinkd --help):
  submit <locked.bench> [--attack muxlink|untangle] [attack flags]
       [--timeout S] [--daemon ADDR] [--wait] [--report F] [--key-out F]
                                               queue a job on a muxlinkd
  status <job-id> [--daemon ADDR]              job lifecycle state
  result <job-id> [--daemon ADDR] [--wait]     fetch the result manifest
       [--report F] [--key-out F]
  cancel <job-id> [--daemon ADDR]              cancel a queued job
  daemon stats|shutdown [--daemon ADDR]        daemon.* metrics / drain

--daemon ADDR is unix:PATH, tcp:HOST:PORT, or a bare socket path
(default: MUXLINK_DAEMON env, else /tmp/muxlinkd-<uid>.sock).

--threads N caps the worker pool (default: MUXLINK_THREADS env or all
hardware threads). Results are bit-identical for any thread count.
)";
  return 1;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write '" + path + "'");
  os << text;
}

int cmd_gen(const CliArgs& args) {
  args.allow_only({"scale", "out"});
  if (args.positional().size() != 1) return usage();
  const auto nl =
      circuitgen::make_benchmark(args.positional()[0], args.get_double("scale", 1.0));
  if (const auto out = args.get("out")) {
    write_design(nl, *out);
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << netlist::write_bench(nl);
  }
  return 0;
}

int cmd_stats(const CliArgs& args) {
  args.allow_only({});
  if (args.positional().size() != 1) return usage();
  const auto nl = read_design(args.positional()[0]);
  std::cout << nl.name() << ": " << netlist::format_stats(netlist::compute_stats(nl));
  const auto keys = attacks::find_key_inputs(nl);
  if (!keys.empty()) std::cout << "  key inputs: " << keys.size() << "\n";
  return 0;
}

int cmd_lock(const CliArgs& args) {
  args.allow_only({"scheme", "key-bits", "seed", "out", "key-out", "allow-partial"});
  if (args.positional().size() != 1) return usage();
  const auto nl = read_design(args.positional()[0]);
  locking::MuxLockOptions opts;
  opts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 64));
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.allow_partial = args.has("allow-partial");
  const std::string scheme = args.get_or("scheme", "dmux");
  // resolve_scheme throws std::invalid_argument (exit 1) listing the valid
  // names — the same resolver campaign and the zoo key labeling go through.
  const locking::LockedDesign d = locking::resolve_scheme(scheme)(nl, opts);
  std::cout << "locked with " << d.key_size() << " key bits (" << d.scheme
            << "); key = " << d.key_string() << "\n";
  if (const auto out = args.get("out")) {
    write_design(d.netlist, *out);
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << netlist::write_bench(d.netlist);
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, d.key_string() + "\n");
  return 0;
}

// muxlink attack / untangle: both run and score through the shared job
// runner. --deterministic runs the self-contained spec, so --report writes
// EXACTLY the bytes a muxlinkd worker would produce for it. A plain run
// hands the runner the netlist it read plus the CLI-only options
// (telemetry, checkpoints, warm start, model output), and its --report is
// that same manifest with the run's stage timings, thread count,
// observability snapshot and serving figures added.
int cmd_attack(const CliArgs& args, const std::string& attack_name,
               const std::vector<std::string>& flags) {
  args.allow_only(flags);
  if (args.positional().size() != 1) return usage();
  if (const long t = args.get_long("threads", 0); t > 0) {
    common::set_num_threads(static_cast<std::size_t>(t));
  }
  if (const auto simd = args.get("simd")) {
    common::set_simd_mode(common::parse_simd_mode(*simd));
  }
  const bool deterministic = args.has("deterministic");
  if (deterministic) {
    for (const char* flag : {"telemetry", "checkpoint-dir", "checkpoint-every", "resume",
                             "clip-grad", "save-model", "warm-start", "warm-epochs",
                             "warm-lr-scale"}) {
      if (args.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " is not available with --deterministic (it is not part of "
                                    "an AttackJobSpec)");
      }
    }
  }
  const auto locked = read_design(args.positional()[0]);
  const core::AttackJobSpec spec = spec_from_args(args, attack_name, locked);
  core::MuxLinkOptions opts = core::job_options(spec);
  opts.telemetry_path = args.get_or("telemetry", "");
  opts.checkpoint_dir = args.get_or("checkpoint-dir", "");
  opts.checkpoint_every = static_cast<int>(args.get_long("checkpoint-every", 1));
  opts.resume = args.has("resume");
  opts.clip_grad = args.get_double("clip-grad", 0.0);
  opts.model_out = args.get_or("save-model", "");
  opts.warm_start = args.get_or("warm-start", "");
  opts.warm_epochs = static_cast<int>(args.get_long("warm-epochs", 0));
  opts.warm_lr_scale = args.get_double("warm-lr-scale", 0.1);
  opts.use_zoo = opts.use_zoo || !opts.warm_start.empty();
  if (opts.resume && opts.checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume requires --checkpoint-dir");
  }
  const core::AttackJobOutcome outcome =
      deterministic ? core::run_attack_job(spec) : core::run_attack_job(locked, spec, opts);

  std::cout << "deciphered key = " << outcome.key_string << "\n";
  std::cout << "stages: sample " << outcome.sample_seconds << "s, train " << outcome.train_seconds
            << "s, score " << outcome.score_seconds << "s (" << outcome.threads << " threads), "
            << outcome.total_seconds << "s total\n";
  if (outcome.resumed_from_epoch > 0) {
    std::cout << "resumed from checkpoint at epoch " << outcome.resumed_from_epoch << "\n";
  }
  if (outcome.rollbacks > 0) std::cout << "divergence rollbacks: " << outcome.rollbacks << "\n";
  const core::ServingStats& serving = outcome.serving;
  if (serving.zoo_enabled) {
    std::cout << "zoo " << (serving.zoo_hit ? "hit" : "miss") << " (" << serving.zoo_key << ")";
    if (serving.zoo_hit) std::cout << ", " << serving.bytes_mapped << " bytes mapped";
    if (serving.warm_start) std::cout << ", warm-started";
    if (serving.cache_hits + serving.cache_misses > 0) {
      std::cout << "; score cache " << serving.cache_hits << "/"
                << (serving.cache_hits + serving.cache_misses) << " hits";
    }
    std::cout << "\n";
  }
  for (const auto& [name, value] : outcome.manifest.at("results").members()) {
    std::cout << "  " << name << " = " << value.dump() << "\n";
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, outcome.key_string + "\n");
  if (const auto out = args.get("recover")) {
    write_design(core::recover_design(locked, outcome.key), *out);
    std::cout << "wrote " << *out << "\n";
  }
  if (const auto report = args.get("report")) {
    common::Json doc = outcome.manifest;
    if (!deterministic) {
      common::RunManifest m = common::RunManifest::from_json(outcome.manifest);
      m.threads = outcome.threads;
      m.add_stage("sample", outcome.sample_seconds);
      m.add_stage("train", outcome.train_seconds);
      m.add_stage("score", outcome.score_seconds);
      m.add_stage("total", outcome.total_seconds);
      m.telemetry_path = opts.telemetry_path;
      m.extra["sortpool_k"] = outcome.sortpool_k;
      m.extra["feature_dim"] = outcome.feature_dim;
      m.extra["rollbacks"] = outcome.rollbacks;
      m.extra["resumed_from_epoch"] = outcome.resumed_from_epoch;
      m.extra["cpu"] = gnn::cpu_info_json();
      if (serving.zoo_enabled) {
        common::Json& block = m.extra["serving"];
        block["zoo_hit"] = serving.zoo_hit;
        block["warm_start"] = serving.warm_start;
        block["zoo_key"] = serving.zoo_key;
        block["cache_hits"] = serving.cache_hits;
        block["cache_misses"] = serving.cache_misses;
        block["bytes_mapped"] = static_cast<long long>(serving.bytes_mapped);
      }
      m.observability = common::observability_to_json();
      doc = m.to_json();
    }
    write_text(*report, doc.dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// muxlink campaign — the defense x attack sweep (eval/campaign.h).
int cmd_campaign(const CliArgs& args) {
  args.allow_only({"schemes", "circuits", "attacks", "key-bits", "scale", "seed", "hops", "th",
                   "epochs", "lr", "links", "hd-patterns", "workers", "out-dir", "zoo",
                   "zoo-dir", "resume", "report", "fleet", "fleet-max-attempts",
                   "fleet-retry-budget", "fleet-dispatch-timeout-ms", "fleet-no-local-fallback"});
  if (!args.positional().empty()) return usage();
  eval::CampaignOptions opts;
  if (const auto v = args.get("schemes")) opts.schemes = split_list(*v);
  if (const auto v = args.get("circuits")) opts.circuits = split_list(*v);
  if (const auto v = args.get("attacks")) opts.attacks = split_list(*v);
  opts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 16));
  opts.circuit_scale = args.get_double("scale", 1.0);
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.hops = static_cast<int>(args.get_long("hops", 2));
  opts.threshold = args.get_double("th", 0.01);
  opts.epochs = static_cast<int>(args.get_long("epochs", 10));
  opts.learning_rate = args.get_double("lr", 1e-3);
  opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  opts.hd_patterns = static_cast<std::size_t>(args.get_long("hd-patterns", 2000));
  opts.out_dir = args.get_or("out-dir", "campaign");
  opts.zoo_dir = args.get_or("zoo-dir", "");
  opts.use_zoo = args.has("zoo") || args.has("zoo-dir");
  opts.resume = args.has("resume");
  // Fleet mode (DESIGN.md §14): dispatch every cell's attack to these
  // muxlinkd backends. The aggregate stays byte-identical to a local run.
  if (const auto v = args.get("fleet")) opts.fleet_backends = split_list(*v);
  opts.fleet_max_attempts = static_cast<int>(args.get_long("fleet-max-attempts", 4));
  opts.fleet_retry_budget = static_cast<int>(args.get_long("fleet-retry-budget", 64));
  opts.fleet_dispatch_timeout_ms = args.get_long("fleet-dispatch-timeout-ms", 0);
  opts.fleet_local_fallback = !args.has("fleet-no-local-fallback");
  if (const long w = args.get_long("workers", 0); w > 0) {
    common::set_num_threads(static_cast<std::size_t>(w));
  }

  const auto result = eval::run_campaign(opts);

  eval::Table table({"scheme", "circuit", "attack", "K", "AC%", "PC%", "KPA%", "HD%"});
  for (const auto& c : result.cells) {
    table.add_row({c.scheme, c.circuit, c.attack, std::to_string(c.key_bits),
                   eval::Table::num(c.accuracy_percent), eval::Table::num(c.precision_percent),
                   eval::Table::num(c.kpa_percent), eval::Table::num(c.hd_percent)});
  }
  std::cout << table.to_string();
  std::cout << result.cells.size() << " cells (" << result.resumed_cells
            << " resumed), aggregate manifest: " << result.aggregate_path << "\n";
  if (const auto report = args.get("report")) {
    write_text(*report, result.aggregate.to_json().dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

// muxlink zoo <list|info|gc|pin|unpin> — registry maintenance.
int cmd_zoo(const CliArgs& args) {
  args.allow_only({"zoo-dir", "max-bytes"});
  if (args.positional().empty()) return usage();
  const std::string verb = args.positional()[0];
  const zoo::Registry registry(zoo::Registry::resolve_dir(args.get_or("zoo-dir", "")));

  if (verb == "list") {
    if (args.positional().size() != 1) return usage();
    const auto entries = registry.list();
    std::uintmax_t total = 0;
    for (const auto& e : entries) {
      std::cout << (e.pinned ? "* " : "  ") << e.key << "  " << e.bytes << " bytes\n";
      total += e.bytes;
    }
    std::cout << entries.size() << " entries, " << total << " bytes in " << registry.dir()
              << " (* = pinned, least recently used first)\n";
    return 0;
  }
  if (verb == "info") {
    if (args.positional().size() != 2) return usage();
    const std::string& key = args.positional()[1];
    const auto path = registry.entry_path(key);
    std::cout << zoo::read_blob_meta(path).dump_pretty() << "\n";
    std::cout << "path: " << path << (registry.pinned(key) ? " (pinned)" : "") << "\n";
    return 0;
  }
  if (verb == "gc") {
    if (args.positional().size() != 1) return usage();
    const auto max_bytes = args.get_long("max-bytes", -1);
    if (max_bytes < 0) throw std::invalid_argument("zoo gc requires --max-bytes");
    const auto r = registry.gc(static_cast<std::uintmax_t>(max_bytes));
    for (const auto& key : r.evicted) std::cout << "evicted " << key << "\n";
    std::cout << "freed " << r.bytes_freed << " bytes, kept " << r.bytes_kept << "\n";
    return 0;
  }
  if (verb == "pin" || verb == "unpin") {
    if (args.positional().size() != 2) return usage();
    const std::string& key = args.positional()[1];
    if (!registry.contains(key)) {
      throw zoo::ZooError("no registry entry '" + key + "' in " + registry.dir().string());
    }
    if (verb == "pin") {
      registry.pin(key);
    } else {
      registry.unpin(key);
    }
    std::cout << (verb == "pin" ? "pinned " : "unpinned ") << key << "\n";
    return 0;
  }
  return usage();
}

int cmd_simple_attack(const CliArgs& args, bool saam) {
  args.allow_only({});
  if (args.positional().size() != 1) return usage();
  const auto locked = read_design(args.positional()[0]);
  const auto key = saam ? attacks::saam_attack(locked) : attacks::scope_attack(locked);
  std::cout << "deciphered key = " << core::render_key(key) << "\n";
  return 0;
}

int cmd_hd(const CliArgs& args) {
  args.allow_only({"patterns", "key", "threads"});
  if (args.positional().size() != 2) return usage();
  if (const long t = args.get_long("threads", 0); t > 0) {
    common::set_num_threads(static_cast<std::size_t>(t));
  }
  const auto a = read_design(args.positional()[0]);
  const auto b = read_design(args.positional()[1]);
  sim::HammingOptions opts;
  opts.num_patterns = static_cast<std::size_t>(args.get_long("patterns", 100000));
  if (const auto key = args.get("key")) {
    const auto keys = attacks::find_key_inputs(b);
    if (keys.size() != key->size()) {
      std::cerr << "--key length " << key->size() << " != " << keys.size()
                << " key inputs in " << b.name() << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      opts.extra_inputs_b.emplace_back(keys[i].name, (*key)[i] == '1');
    }
  }
  std::cout << "HD = " << sim::hamming_distance_percent(a, b, opts) << "%\n";
  return 0;
}

// --- daemon client commands (MXRPC1; DESIGN.md §13) -------------------------

daemon::DaemonClient make_client(const CliArgs& args) {
  daemon::ClientOptions copts;
  copts.address = args.get_or("daemon", "");
  return daemon::DaemonClient(std::move(copts));
}

// Handles a RESULT_OK reply: prints the state, writes --report/--key-out on
// DONE. Exit 0 when the job succeeded, 2 when it FAILED/TIMEOUT/CANCELLED,
// 0 with just the state line when it is still in flight.
int render_result_reply(const CliArgs& args, const common::Json& reply) {
  const std::string state = reply.string_or("state", "?");
  std::cout << reply.string_or("job_id", "?") << ": " << state << "\n";
  if (state == "DONE") {
    std::cout << "deciphered key = " << reply.string_or("key", "") << "\n";
    if (const auto key_out = args.get("key-out")) {
      write_text(*key_out, reply.string_or("key", "") + "\n");
    }
    if (const common::Json* manifest = reply.find("manifest")) {
      if (const auto report = args.get("report")) {
        write_text(*report, manifest->dump_pretty() + "\n");
        std::cout << "wrote " << *report << "\n";
      } else if (const auto* results = manifest->find("results")) {
        for (const auto& [name, value] : results->members()) {
          std::cout << "  " << name << " = " << value.dump() << "\n";
        }
      }
    }
    return 0;
  }
  if (const auto* err = reply.find("error"); err && err->is_string()) {
    std::cout << "error: " << err->as_string() << "\n";
  }
  return state == "QUEUED" || state == "RUNNING" ? 0 : 2;
}

int cmd_submit(const CliArgs& args) {
  args.allow_only({"attack", "hops", "th", "epochs", "lr", "links", "seed", "scheme",
                   "truth-key", "orig", "patterns", "zoo", "zoo-dir", "no-score-cache",
                   "timeout", "daemon", "wait", "report", "key-out"});
  if (args.positional().size() != 1) return usage();
  const std::string attack_name = args.get_or("attack", "muxlink");
  core::AttackJobSpec spec =
      spec_from_args(args, attack_name, read_design(args.positional()[0]));
  spec.timeout_seconds = args.get_double("timeout", 0.0);
  auto client = make_client(args);
  const std::string job_id = client.submit(spec);
  std::cout << "submitted " << job_id << " (" << spec.attack << " on " << spec.circuit << ") to "
            << client.address() << "\n";
  if (!args.has("wait")) return 0;
  return render_result_reply(args, client.wait_for_result(job_id));
}

int cmd_status(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const auto reply = client.status(args.positional()[0]);
  std::cout << reply.string_or("job_id", "?") << ": " << reply.string_or("state", "?");
  if (const auto* pos = reply.find("queue_position")) {
    std::cout << " (queue position " << pos->as_int() << ")";
  }
  if (const auto* wall = reply.find("wall_seconds")) {
    std::cout << " (" << wall->as_double() << "s)";
  }
  if (const auto* err = reply.find("error"); err && err->is_string()) {
    std::cout << " — " << err->as_string();
  }
  std::cout << "\n";
  return 0;
}

int cmd_result(const CliArgs& args) {
  args.allow_only({"daemon", "wait", "report", "key-out"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const std::string& job_id = args.positional()[0];
  const auto reply = args.has("wait") ? client.wait_for_result(job_id) : client.result(job_id);
  return render_result_reply(args, reply);
}

int cmd_cancel(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const auto reply = client.cancel(args.positional()[0]);
  std::cout << reply.string_or("job_id", "?") << ": " << reply.string_or("state", "?") << "\n";
  return 0;
}

int cmd_daemon(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  const std::string& verb = args.positional()[0];
  auto client = make_client(args);
  if (verb == "stats") {
    std::cout << client.stats().dump_pretty() << "\n";
    return 0;
  }
  if (verb == "shutdown") {
    client.shutdown();
    std::cout << client.address() << " is draining\n";
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const CliArgs args(argc - 2, argv + 2);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "lock") return cmd_lock(args);
    // untangle shares the attack flags minus --th and the training-only ones.
    if (cmd == "attack") {
      return cmd_attack(args, "muxlink",
                        {"hops", "th", "epochs", "lr", "links", "seed", "key-out", "recover",
                         "threads", "report", "telemetry", "truth-key", "orig", "scheme",
                         "patterns", "checkpoint-dir", "checkpoint-every", "resume", "clip-grad",
                         "save-model", "simd", "zoo", "zoo-dir", "warm-start", "warm-epochs",
                         "warm-lr-scale", "no-score-cache", "deterministic"});
    }
    if (cmd == "untangle") {
      return cmd_attack(args, "untangle",
                        {"hops", "epochs", "lr", "links", "seed", "key-out", "recover", "threads",
                         "report", "truth-key", "orig", "scheme", "patterns", "simd", "zoo",
                         "zoo-dir", "no-score-cache", "deterministic"});
    }
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "zoo") return cmd_zoo(args);
    if (cmd == "saam") return cmd_simple_attack(args, true);
    if (cmd == "scope") return cmd_simple_attack(args, false);
    if (cmd == "hd") return cmd_hd(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "result") return cmd_result(args);
    if (cmd == "cancel") return cmd_cancel(args);
    if (cmd == "daemon") return cmd_daemon(args);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const daemon::ProtocolError& e) {
    std::cerr << "protocol error: " << e.what() << "\n";
    return 6;
  } catch (const daemon::DaemonError& e) {
    std::cerr << "daemon error: " << e.what() << "\n";
    return 6;
  } catch (const gnn::ModelFormatError& e) {  // any MXZOO1 file, zoo::ZooError too
    std::cerr << "model format error: " << e.what() << "\n";
    return 4;
  } catch (const gnn::CheckpointError& e) {
    std::cerr << "checkpoint error: " << e.what() << "\n";
    return 5;
  } catch (const netlist::NetlistError& e) {  // BENCH/Verilog parse included
    std::cerr << "input error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
