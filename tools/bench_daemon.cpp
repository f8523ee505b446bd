// bench_daemon — single-line-JSON perf tracker for attack-as-a-service
// serving (DESIGN.md §13).
//
// Locks one ISCAS-style circuit, builds a small set of attack jobs (cycling
// over --distinct seeds) against a throwaway zoo, and measures three phases:
//
//   cold             each distinct spec once, sequentially (trains models,
//                    fills the zoo + score cache);
//   sequential_warm  every job run back-to-back through run_attack_job —
//                    the one-shot-CLI baseline;
//   daemon_warm      the same jobs submitted over MXRPC1 by --clients
//                    concurrent client threads to an in-process muxlinkd
//                    with --workers compute workers.
//
// The exit gate enforces the daemon determinism contract: every manifest a
// daemon worker produced must be BYTE-IDENTICAL to the sequential one for
// the same job, despite concurrent clients, shared zoo, and shared score
// cache. Exit 3 on any divergence, so CI tracks daemon serving the same way
// it tracks bench_pipeline / bench_serving.
//
//   bench_daemon [--circuit c880] [--key-bits 32] [--epochs 12]
//                [--links 2000] [--seed 1] [--jobs 6] [--distinct 2]
//                [--clients 3] [--workers 4] [--no-score-cache] [--report F]
//
// --no-score-cache makes every warm job re-score its links through GNN
// inference instead of replaying the per-link cache: that is the config
// where worker concurrency can actually pay (cache replay is so cheap that
// RPC+polling overhead dominates it).
//
// stdout is always the compact single-line manifest; --report additionally
// writes it pretty-printed to F.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "circuitgen/suites.h"
#include "common/run_manifest.h"
#include "daemon/client.h"
#include "daemon/server.h"
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
                     "clients", "workers", "no-score-cache", "report"});
    const std::string circuit = args.get_or("circuit", "c880");
    const std::size_t jobs = static_cast<std::size_t>(args.get_long("jobs", 6));
    const std::size_t distinct =
        std::max<std::size_t>(1, static_cast<std::size_t>(args.get_long("distinct", 2)));
    const std::size_t clients =
        std::max<std::size_t>(1, static_cast<std::size_t>(args.get_long("clients", 3)));
    const int workers = static_cast<int>(args.get_long("workers", 4));

    const auto nl = circuitgen::make_benchmark(circuit, 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 32));
    lopts.seed = 1;
    const auto locked = locking::lock_dmux(nl, lopts);

    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path() / "muxlink-bench-daemon";
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
    base.score_cache = !args.has("no-score-cache");
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

    // Phase 2: the one-shot-CLI baseline — every job, back to back.
    std::vector<std::string> sequential(jobs);
    const auto t_seq = Clock::now();
    for (std::size_t i = 0; i < jobs; ++i) {
      sequential[i] = core::run_attack_job(specs[i]).manifest.dump_pretty();
    }
    const double sequential_seconds = seconds_since(t_seq);

    // Phase 3: the same jobs through an in-process muxlinkd.
    daemon::DaemonOptions dopts;
    dopts.socket_path = (tmp / "bench.sock").string();
    dopts.workers = workers;
    dopts.max_queue = jobs + 8;
    dopts.zoo_dir = zoo_dir.string();
    daemon::DaemonServer server(dopts);
    server.start();

    std::vector<std::string> concurrent(jobs);
    std::vector<std::thread> client_threads;
    const auto t_daemon = Clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        daemon::ClientOptions copts;
        copts.address = "unix:" + dopts.socket_path;
        daemon::DaemonClient client(std::move(copts));
        std::vector<std::pair<std::size_t, std::string>> mine;
        for (std::size_t i = c; i < jobs; i += clients) {
          mine.emplace_back(i, client.submit(specs[i]));
        }
        for (const auto& [i, job_id] : mine) {
          const common::Json reply = client.wait_for_result(job_id);
          if (const common::Json* manifest = reply.find("manifest")) {
            concurrent[i] = manifest->dump_pretty();
          }
        }
      });
    }
    for (auto& t : client_threads) t.join();
    const double daemon_seconds = seconds_since(t_daemon);
    const common::Json stats = server.stats_json();
    server.stop();
    std::filesystem::remove_all(tmp);

    bool identical = true;
    for (std::size_t i = 0; i < jobs; ++i) {
      identical = identical && !concurrent[i].empty() && concurrent[i] == sequential[i];
    }
    const double speedup = daemon_seconds > 0.0 ? sequential_seconds / daemon_seconds : 0.0;

    common::RunManifest m = common::make_run_manifest("bench_daemon");
    m.seed = seed0;
    m.circuit = circuit;
    m.scheme = "dmux";
    m.key_bits = static_cast<std::int64_t>(lopts.key_bits);
    m.add_stage("cold", cold_seconds);
    m.add_stage("sequential_warm", sequential_seconds);
    m.add_stage("daemon_warm", daemon_seconds);
    m.add_result("jobs", static_cast<double>(jobs));
    m.add_result("distinct_models", static_cast<double>(std::min(distinct, jobs)));
    m.add_result("clients", static_cast<double>(clients));
    m.add_result("daemon_workers", static_cast<double>(workers));
    m.add_result("daemon_speedup", speedup);
    m.add_result("bit_identical", identical ? 1.0 : 0.0);
    m.add_result("jobs_completed", stats.number_or("jobs_completed", 0.0));
    m.add_result("requests_served", stats.number_or("requests_served", 0.0));
    common::Json extra = common::Json::object();
    extra["epochs"] = base.epochs;
    extra["links"] = static_cast<std::int64_t>(base.max_train_links);
    extra["daemon_stats"] = stats;
    extra["cpu"] = gnn::cpu_info_json();
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
      std::cerr << "daemon manifests diverged from the sequential baseline\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
