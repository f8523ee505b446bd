// muxlink-coord — fan attack jobs out to a fleet of muxlinkd backends
// (DESIGN.md §14).
//
//   muxlink-coord --backends ADDR,ADDR,... [options] <locked.bench>...
//   muxlink-coord --backends ADDR,ADDR,... --probe
//
// Each BENCH file becomes one AttackJobSpec dispatched through the fleet
// coordinator: per-backend health heartbeats with a three-state circuit
// breaker, retry with decorrelated-jitter backoff, failover re-dispatch,
// and graceful degradation to local in-process execution. The spec is built
// by the same code as `muxlink submit` builds it (tools/job_spec_args.h), so
// a job's manifest is byte-identical to `muxlink submit --wait --report`.
// Results are byte-identical to running the same job anywhere else (the
// deterministic job contract), so retries and failover never change output.
//
// --probe skips jobs: it heartbeats the fleet once and reports per-backend
// health (exit 0 if at least one backend is healthy, 2 otherwise).
//
// Exit codes follow the muxlink CLI taxonomy: 0 ok, 1 usage, 2 runtime
// (any job failed / no healthy backend under --probe).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "fleet/coordinator.h"
#include "muxlink/job.h"
#include "tools/cli_args.h"
#include "tools/job_spec_args.h"

namespace {

using namespace muxlink;
using tools::CliArgs;

int usage() {
  std::cerr <<
      R"(usage: muxlink-coord --backends ADDR,ADDR,... [options] <locked.bench>...

  --backends A,B,...  muxlinkd addresses (unix:PATH or tcp:HOST:PORT); jobs
                      fail over between them, ejected backends are probed
                      for re-admission
  --probe             no jobs: heartbeat the fleet once and report health
                      (exit 0 if any backend is healthy, 2 otherwise)

attack knobs (one job per BENCH file):
  --attack A          muxlink | untangle (default muxlink)
  --scheme S          locking-scheme label folded into zoo keys
  --hops H --th T --epochs E --lr L --links N --seed S
  --zoo [--zoo-dir D] serve trained models from the zoo

fleet knobs:
  --max-attempts N    dispatches per job incl. the first (default 4)
  --retry-budget N    fleet-wide re-dispatch allowance (default 64)
  --dispatch-timeout-ms N  per-dispatch failover deadline (0 = none)
  --heartbeat-ms N    breaker probe cadence (default 500)
  --no-local-fallback fail jobs instead of running locally when the whole
                      fleet is ejected

output:
  --out-dir D         write each job's manifest to D/<job-id>.json
  --stats             print fleet stats JSON (breaker states, retries,
                      dispatch failures) after the jobs finish
)";
  return 1;
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

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"backends", "probe", "attack", "scheme", "hops", "th", "epochs", "lr",
                     "links", "seed", "zoo", "zoo-dir", "max-attempts", "retry-budget",
                     "dispatch-timeout-ms", "heartbeat-ms", "no-local-fallback", "out-dir",
                     "stats", "help"});
    if (args.has("help")) return usage();

    fleet::FleetOptions fopts;
    fopts.backends = split_list(args.get_or("backends", ""));
    if (fopts.backends.empty()) {
      std::cerr << "error: --backends is required\n";
      return usage();
    }
    fopts.max_attempts_per_job = static_cast<int>(args.get_long("max-attempts", 4));
    fopts.retry_budget = static_cast<int>(args.get_long("retry-budget", 64));
    fopts.dispatch_timeout_ms = args.get_long("dispatch-timeout-ms", 0);
    fopts.heartbeat_interval_ms = static_cast<int>(args.get_long("heartbeat-ms", 500));
    fopts.allow_local_fallback = !args.has("no-local-fallback");

    if (args.has("probe")) {
      if (!args.positional().empty()) return usage();
      fleet::FleetCoordinator coord(fopts);
      coord.start();
      // One full heartbeat round covers every backend; wait out two
      // cadences plus the probe timeout so each address is visited.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          2 * fopts.heartbeat_interval_ms + fopts.heartbeat_timeout_ms));
      bool any_healthy = false;
      for (const std::string& addr : fopts.backends) {
        const fleet::BackendHealth h = coord.backend_health(addr);
        any_healthy = any_healthy || h == fleet::BackendHealth::kHealthy;
        std::cout << addr << " " << fleet::to_string(h) << "\n";
      }
      coord.stop();
      return any_healthy ? 0 : 2;
    }

    if (args.positional().empty()) return usage();

    // Built and validated exactly as `muxlink submit` does it: a bad spec
    // is a usage error before anything is dispatched.
    std::vector<core::AttackJobSpec> specs;
    const std::string attack_name = args.get_or("attack", "muxlink");
    for (const std::string& path : args.positional()) {
      specs.push_back(tools::spec_from_args(args, attack_name, tools::read_design(path)));
      (void)core::job_options(specs.back());
    }

    fleet::FleetCoordinator coord(fopts);
    coord.start();
    std::vector<std::string> ids;
    for (const auto& spec : specs) ids.push_back(coord.submit(spec));

    const std::string out_dir = args.get_or("out-dir", "");
    if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
    int failed = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const fleet::FleetJobResult r = coord.wait(ids[i]);
      if (r.ok) {
        std::cout << r.job_id << " " << args.positional()[i] << " DONE on " << r.backend << " ("
                  << r.attempts << " attempt" << (r.attempts == 1 ? "" : "s")
                  << ") key=" << r.key_string << "\n";
        if (!out_dir.empty()) {
          const auto path = std::filesystem::path(out_dir) / (r.job_id + ".json");
          std::ofstream os(path);
          if (!os) throw std::runtime_error("cannot write '" + path.string() + "'");
          os << r.manifest.dump_pretty() << "\n";
        }
      } else {
        ++failed;
        std::cout << r.job_id << " " << args.positional()[i] << " FAILED after " << r.attempts
                  << " attempt" << (r.attempts == 1 ? "" : "s") << ": " << r.error << "\n";
      }
    }
    if (args.has("stats")) std::cout << coord.stats_json().dump_pretty() << "\n";
    coord.stop();
    return failed == 0 ? 0 : 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
