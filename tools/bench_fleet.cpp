// bench_fleet — single-line-JSON perf tracker for fleet-coordinated serving
// (DESIGN.md §14).
//
// Locks one ISCAS-style circuit, builds a set of attack jobs (cycling over
// --distinct seeds) against a throwaway zoo, and measures three phases:
//
//   cold             each distinct spec once, sequentially (trains models,
//                    fills the zoo + score cache);
//   sequential_warm  every job run back-to-back through run_attack_job —
//                    the one-process baseline;
//   fleet_warm       the same jobs submitted through a FleetCoordinator
//                    fanning out to --backends in-process muxlinkd servers
//                    (--workers compute workers each).
//
// The exit gate enforces the fleet determinism contract: every manifest the
// fleet delivered must be BYTE-IDENTICAL to the sequential one for the same
// job, despite fan-out, retries and shared zoo state. Exit 3 on any
// divergence, so CI tracks fleet serving the same way it tracks
// bench_daemon.
//
//   bench_fleet [--circuit c880] [--key-bits 32] [--epochs 12]
//               [--links 2000] [--seed 1] [--jobs 6] [--distinct 2]
//               [--backends 2] [--workers 2] [--report F]
//
// stdout is always the compact single-line manifest; --report additionally
// writes it pretty-printed to F.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "circuitgen/suites.h"
#include "common/run_manifest.h"
#include "daemon/server.h"
#include "fleet/coordinator.h"
#include "gnn/simd.h"
#include "locking/mux_lock.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"
#include "tools/cli_args.h"

namespace {

using namespace muxlink;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"circuit", "key-bits", "epochs", "links", "seed", "jobs", "distinct",
                     "backends", "workers", "report"});
    const std::string circuit = args.get_or("circuit", "c880");
    const std::size_t jobs = static_cast<std::size_t>(args.get_long("jobs", 6));
    const std::size_t distinct =
        std::max<std::size_t>(1, static_cast<std::size_t>(args.get_long("distinct", 2)));
    const std::size_t backends =
        std::max<std::size_t>(1, static_cast<std::size_t>(args.get_long("backends", 2)));
    const int workers = static_cast<int>(args.get_long("workers", 2));

    const auto nl = circuitgen::make_benchmark(circuit, 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 32));
    lopts.seed = 1;
    const auto locked = locking::lock_dmux(nl, lopts);

    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path() / "muxlink-bench-fleet";
    std::filesystem::remove_all(tmp);
    std::filesystem::create_directories(tmp);
    const std::filesystem::path zoo_dir = tmp / "zoo";

    core::AttackJobSpec base;
    base.attack = "muxlink";
    base.circuit = locked.netlist.name();
    base.bench = netlist::write_bench(locked.netlist);
    base.epochs = static_cast<int>(args.get_long("epochs", 12));
    base.max_train_links = static_cast<std::size_t>(args.get_long("links", 2000));
    base.scheme = "dmux";
    base.use_zoo = true;
    base.zoo_dir = zoo_dir.string();
    const std::uint64_t seed0 = static_cast<std::uint64_t>(args.get_long("seed", 1));
    std::vector<core::AttackJobSpec> specs;
    for (std::size_t i = 0; i < jobs; ++i) {
      core::AttackJobSpec s = base;
      s.seed = seed0 + (i % distinct);
      specs.push_back(std::move(s));
    }

    // Phase 1: cold — train each distinct model once, filling the zoo.
    const auto t_cold = Clock::now();
    for (std::size_t i = 0; i < distinct && i < jobs; ++i) {
      core::run_attack_job(specs[i]);
    }
    const double cold_seconds = seconds_since(t_cold);

    // Phase 2: the one-process baseline — every job, back to back.
    std::vector<std::string> sequential(jobs);
    const auto t_seq = Clock::now();
    for (std::size_t i = 0; i < jobs; ++i) {
      sequential[i] = core::run_attack_job(specs[i]).manifest.dump_pretty();
    }
    const double sequential_seconds = seconds_since(t_seq);

    // Phase 3: the same jobs fanned out by the coordinator.
    std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
    fleet::FleetOptions fopts;
    for (std::size_t b = 0; b < backends; ++b) {
      daemon::DaemonOptions dopts;
      dopts.socket_path = (tmp / ("backend-" + std::to_string(b) + ".sock")).string();
      dopts.workers = workers;
      dopts.max_queue = jobs + 8;
      dopts.zoo_dir = zoo_dir.string();
      servers.push_back(std::make_unique<daemon::DaemonServer>(dopts));
      servers.back()->start();
      fopts.backends.push_back("unix:" + dopts.socket_path);
    }
    fopts.allow_local_fallback = false;  // the bench measures the fleet, not degradation

    fleet::FleetCoordinator coord(fopts);
    coord.start();
    const auto t_fleet = Clock::now();
    std::vector<std::string> ids;
    for (const auto& spec : specs) ids.push_back(coord.submit(spec));
    std::vector<std::string> fleet_out(jobs);
    bool all_ok = true;
    for (std::size_t i = 0; i < jobs; ++i) {
      const fleet::FleetJobResult r = coord.wait(ids[i]);
      all_ok = all_ok && r.ok;
      if (r.ok) fleet_out[i] = r.manifest.dump_pretty();
    }
    const double fleet_seconds = seconds_since(t_fleet);
    const common::Json stats = coord.stats_json();
    coord.stop();
    for (auto& s : servers) s->stop();
    std::filesystem::remove_all(tmp);

    bool identical = all_ok;
    for (std::size_t i = 0; i < jobs; ++i) {
      identical = identical && !fleet_out[i].empty() && fleet_out[i] == sequential[i];
    }
    const double speedup = fleet_seconds > 0.0 ? sequential_seconds / fleet_seconds : 0.0;

    common::RunManifest m = common::make_run_manifest("bench_fleet");
    m.seed = seed0;
    m.circuit = circuit;
    m.scheme = "dmux";
    m.key_bits = static_cast<std::int64_t>(lopts.key_bits);
    m.add_stage("cold", cold_seconds);
    m.add_stage("sequential_warm", sequential_seconds);
    m.add_stage("fleet_warm", fleet_seconds);
    m.add_result("jobs", static_cast<double>(jobs));
    m.add_result("distinct_models", static_cast<double>(std::min(distinct, jobs)));
    m.add_result("fleet_backends", static_cast<double>(backends));
    m.add_result("backend_workers", static_cast<double>(workers));
    m.add_result("fleet_speedup", speedup);
    m.add_result("bit_identical", identical ? 1.0 : 0.0);
    m.add_result("jobs_completed", stats.number_or("jobs_completed", 0.0));
    m.add_result("retries", stats.number_or("retries", 0.0));
    common::Json extra = common::Json::object();
    extra["epochs"] = base.epochs;
    extra["links"] = static_cast<std::int64_t>(base.max_train_links);
    extra["cpu"] = gnn::cpu_info_json();
    extra["fleet_stats"] = stats;
    m.extra = std::move(extra);
    m.observability = common::observability_to_json();

    const common::Json j = m.to_json();
    std::cout << j.dump() << "\n";
    if (const auto report = args.get("report")) {
      std::ofstream os(*report);
      if (!os) throw std::runtime_error("cannot write '" + *report + "'");
      os << j.dump_pretty() << "\n";
    }
    if (!identical) {
      std::cerr << "fleet manifests diverged from the sequential baseline\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
