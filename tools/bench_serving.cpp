// bench_serving — single-line-JSON perf tracker for the serving layer
// (DESIGN.md §11).
//
// Locks one ISCAS-style circuit and runs the attack three times against a
// throwaway zoo directory:
//
//   cold   empty registry: sample + train + score, blobs inserted;
//   warm   full registry: weights mmap'd in place, score-cache hits;
//   fresh  full registry, score cache cleared: mmap'd weights, scores
//          recomputed — the determinism probe for cache-served results.
//
// The exit gate enforces the serving contract: the warm run must produce a
// key and per-link scores bit-identical to the cold run (and the fresh run
// to both), and must be at least `--min-speedup` (default 5) times faster
// end to end. Exit 3 on any violation, so CI can track serving regressions
// the same way it tracks bench_pipeline.
//
//   bench_serving [--circuit c880] [--key-bits 32] [--epochs 20]
//                 [--links 2000] [--seed 1] [--min-speedup 5] [--report F]
//                 [--simd auto|avx2|scalar]
//
// stdout is always the compact single-line manifest; --report additionally
// writes it pretty-printed to F.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "circuitgen/suites.h"
#include "common/cpu_features.h"
#include "common/run_manifest.h"
#include "gnn/simd.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "tools/cli_args.h"

namespace {

using namespace muxlink;

bool same_scores(const core::MuxLinkResult& a, const core::MuxLinkResult& b) {
  if (a.key != b.key || a.likelihoods.size() != b.likelihoods.size()) return false;
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    if (a.likelihoods[i].score_a != b.likelihoods[i].score_a ||
        a.likelihoods[i].score_b != b.likelihoods[i].score_b) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"circuit", "key-bits", "epochs", "links", "seed", "min-speedup",
                     "report", "simd"});
    if (const auto simd = args.get("simd")) {
      common::set_simd_mode(common::parse_simd_mode(*simd));
    }
    const std::string circuit = args.get_or("circuit", "c880");
    const double min_speedup = args.get_double("min-speedup", 5.0);

    const auto nl = circuitgen::make_benchmark(circuit, 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 32));
    lopts.seed = 1;
    const auto locked = locking::lock_dmux(nl, lopts);

    const std::filesystem::path zoo_dir =
        std::filesystem::temp_directory_path() / "muxlink-bench-serving-zoo";
    std::filesystem::remove_all(zoo_dir);

    core::MuxLinkOptions opts;
    opts.epochs = static_cast<int>(args.get_long("epochs", 20));
    opts.learning_rate = 1e-3;
    opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 2000));
    opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
    opts.use_zoo = true;
    opts.zoo_dir = zoo_dir.string();
    opts.scheme = "dmux";

    const auto cold = core::MuxLinkAttack(opts).run(locked.netlist);
    const auto warm = core::MuxLinkAttack(opts).run(locked.netlist);
    // Clear the score cache but keep the blobs: scores must recompute to
    // the same bits through the mmap'd weights.
    std::filesystem::remove_all(zoo_dir / "scores");
    std::filesystem::create_directories(zoo_dir / "scores");
    const auto fresh = core::MuxLinkAttack(opts).run(locked.netlist);

    std::filesystem::remove_all(zoo_dir);

    const bool identical = same_scores(cold, warm) && same_scores(cold, fresh);
    const double speedup =
        warm.total_seconds > 0.0 ? cold.total_seconds / warm.total_seconds : 0.0;
    const bool served = warm.serving.zoo_hit && fresh.serving.zoo_hit;
    const bool fast_enough = speedup >= min_speedup;

    common::RunManifest m = common::make_run_manifest("bench_serving");
    m.seed = opts.seed;
    m.circuit = circuit;
    m.scheme = "dmux";
    m.key_bits = static_cast<std::int64_t>(lopts.key_bits);
    m.add_stage("cold_total", cold.total_seconds);
    m.add_stage("cold_train", cold.train_seconds);
    m.add_stage("warm_total", warm.total_seconds);
    m.add_stage("warm_score", warm.score_seconds);
    m.add_stage("fresh_total", fresh.total_seconds);
    m.add_result("warm_speedup", speedup);
    m.add_result("min_speedup", min_speedup);
    m.add_result("bit_identical", identical ? 1.0 : 0.0);
    m.add_result("zoo_served", served ? 1.0 : 0.0);
    m.add_result("bytes_mapped", static_cast<double>(warm.serving.bytes_mapped));
    m.add_result("cache_hits", static_cast<double>(warm.serving.cache_hits));
    m.add_result("cache_misses", static_cast<double>(warm.serving.cache_misses));
    m.add_result("training_links", static_cast<double>(cold.training_links));
    common::Json extra = common::Json::object();
    extra["epochs"] = opts.epochs;
    extra["links"] = static_cast<std::int64_t>(opts.max_train_links);
    extra["zoo_key"] = cold.serving.zoo_key;
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
    if (!identical || !served) return 3;
    if (!fast_enough) {
      std::cerr << "serving speedup " << speedup << "x below the " << min_speedup
                << "x floor\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
