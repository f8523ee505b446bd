// bench_pipeline — single-line-JSON perf tracker for the MuxLink pipeline.
//
// Locks one ISCAS-style circuit, runs the full attack once single-threaded
// and once with N threads, and prints one muxlink.run/v1 manifest (see
// common/run_manifest.h) with the per-stage wall times and the end-to-end
// thread speedup. Registered in CMake but NOT in ctest: it exists so
// successive PRs can track a perf trajectory, e.g.
//
//   ./build/tools/bench_pipeline --circuit c880 --threads 8 >> perf.jsonl
//
//   bench_pipeline [--circuit c880] [--key-bits 32] [--threads N]
//                  [--epochs 20] [--links 2000] [--seed 1] [--report F]
//                  [--simd auto|avx2|scalar]
//
// On a single-core host the N-thread leg is skipped (there is no speedup to
// measure) and the manifest records thread_speedup_skipped=1 with the reason
// in extra; the bit-identity exit gate then only covers the 1-thread run.
//
// Exit 3 when the N-thread run is not bit-identical, or when training fails
// to scale: train_thread_speedup = train_1 / train_n below 1.5 with at least
// 4 hardware threads and N >= 4. Training is almost all of a cold attack,
// so a pool that stops engaging the trainer's loops shows up here first.
//
// stdout is always the compact single-line manifest; --report additionally
// writes it pretty-printed to F.
#include <fstream>
#include <iostream>
#include <thread>

#include "circuitgen/suites.h"
#include "common/cpu_features.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"
#include "gnn/simd.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "tools/cli_args.h"

namespace {

using namespace muxlink;

core::MuxLinkResult run_attack(const netlist::Netlist& locked, const core::MuxLinkOptions& opts,
                               std::size_t threads) {
  common::set_num_threads(threads);
  core::MuxLinkAttack attack(opts);
  return attack.run(locked);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"circuit", "key-bits", "threads", "epochs", "links", "seed", "report",
                     "simd"});
    if (const auto simd = args.get("simd")) {
      common::set_simd_mode(common::parse_simd_mode(*simd));
    }
    const std::string circuit = args.get_or("circuit", "c880");
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t threads = static_cast<std::size_t>(
        args.get_long("threads", static_cast<long>(hw > 0 ? hw : 4)));
    // With one hardware core an N-thread run measures scheduler overhead,
    // not parallel speedup; skip it and say so in the manifest.
    const bool skip_threads = hw <= 1;

    const auto nl = circuitgen::make_benchmark(circuit, 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 32));
    lopts.seed = 1;
    const auto locked = locking::lock_dmux(nl, lopts);

    core::MuxLinkOptions opts;
    opts.epochs = static_cast<int>(args.get_long("epochs", 20));
    opts.learning_rate = 1e-3;
    opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 2000));
    opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));

    const auto base = run_attack(locked.netlist, opts, 1);

    common::RunManifest m = common::make_run_manifest("bench_pipeline");
    m.threads = static_cast<int>(skip_threads ? 1 : threads);
    m.seed = opts.seed;
    m.circuit = circuit;
    m.scheme = "dmux";
    m.key_bits = static_cast<std::int64_t>(lopts.key_bits);
    m.add_stage("sample_1", base.sample_seconds);
    m.add_stage("train_1", base.train_seconds);
    m.add_stage("score_1", base.score_seconds);
    m.add_stage("total_1", base.total_seconds);

    bool identical = true;
    bool scales = true;
    if (!skip_threads) {
      const auto fast = run_attack(locked.netlist, opts, threads);
      identical = base.key == fast.key;
      for (std::size_t i = 0; identical && i < base.likelihoods.size(); ++i) {
        identical = base.likelihoods[i].score_a == fast.likelihoods[i].score_a &&
                    base.likelihoods[i].score_b == fast.likelihoods[i].score_b;
      }
      const double speedup =
          fast.total_seconds > 0.0 ? base.total_seconds / fast.total_seconds : 0.0;
      m.add_stage("sample_n", fast.sample_seconds);
      m.add_stage("train_n", fast.train_seconds);
      m.add_stage("score_n", fast.score_seconds);
      m.add_stage("total_n", fast.total_seconds);
      const double train_speedup =
          fast.train_seconds > 0.0 ? base.train_seconds / fast.train_seconds : 0.0;
      scales = hw < 4 || threads < 4 || train_speedup >= 1.5;
      m.add_result("thread_speedup", speedup);
      m.add_result("train_thread_speedup", train_speedup);
      m.add_result("bit_identical", identical ? 1.0 : 0.0);
    }
    m.add_result("thread_speedup_skipped", skip_threads ? 1.0 : 0.0);
    m.add_result("training_links", static_cast<double>(base.training_links));
    common::Json extra = common::Json::object();
    extra["epochs"] = opts.epochs;
    extra["links"] = static_cast<std::int64_t>(opts.max_train_links);
    extra["cpu"] = gnn::cpu_info_json();
    if (skip_threads) {
      extra["thread_speedup_skip_reason"] =
          std::string("single hardware core: no parallel speedup to measure");
    }
    m.extra = std::move(extra);
    m.observability = common::observability_to_json();

    const common::Json j = m.to_json();
    std::cout << j.dump() << "\n";
    if (const auto report = args.get("report")) {
      std::ofstream os(*report);
      if (!os) throw std::runtime_error("cannot write '" + *report + "'");
      os << j.dump_pretty() << "\n";
    }
    return identical && scales ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
