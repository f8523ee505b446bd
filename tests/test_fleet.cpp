// Fleet coordinator suite (DESIGN.md §14): breaker state machine and
// deterministic backoff units, campaign-via-fleet byte-identity at 1/2/3
// backends, backend kill/restart mid-run failover, a fault-injected retry
// that must reproduce the one-shot manifest, local degradation when every
// backend is unreachable, and the attempt-cap / all-ejected failure paths.
//
// Registered as a single ctest entry: the E2E drills run real (tiny)
// attack jobs against in-process DaemonServers, and the heavy budget
// covers the sanitized build.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuitgen/suites.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "daemon/server.h"
#include "eval/campaign.h"
#include "fleet/coordinator.h"
#include "locking/mux_lock.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"

namespace {

namespace fs = std::filesystem;
using namespace muxlink;
using fleet::BackendHealth;
using fleet::FleetCoordinator;
using fleet::FleetOptions;

// --- Breaker state machine -------------------------------------------------

TEST(Breaker, SuccessFromAnyStateReadmitsToHealthy) {
  for (const auto state :
       {BackendHealth::kHealthy, BackendHealth::kSuspect, BackendHealth::kEjected}) {
    EXPECT_EQ(fleet::breaker_next(state, /*probe_ok=*/true, /*consecutive_failures=*/0,
                                  /*suspect_after=*/1, /*eject_after=*/3),
              BackendHealth::kHealthy);
  }
}

TEST(Breaker, ConsecutiveFailuresWalkHealthySuspectEjected) {
  // suspect_after=2, eject_after=4: failures 1..5 walk the ladder.
  auto step = [](BackendHealth cur, int fails) {
    return fleet::breaker_next(cur, false, fails, 2, 4);
  };
  BackendHealth h = BackendHealth::kHealthy;
  h = step(h, 1);
  EXPECT_EQ(h, BackendHealth::kHealthy) << "below suspect_after must stay healthy";
  h = step(h, 2);
  EXPECT_EQ(h, BackendHealth::kSuspect);
  h = step(h, 3);
  EXPECT_EQ(h, BackendHealth::kSuspect);
  h = step(h, 4);
  EXPECT_EQ(h, BackendHealth::kEjected);
  h = step(h, 5);
  EXPECT_EQ(h, BackendHealth::kEjected) << "ejected stays ejected on failure";
}

TEST(Breaker, EjectedLeavesOnlyViaSuccessfulProbe) {
  // A failure count dropping back under the thresholds must NOT quietly
  // re-admit an ejected backend; only a successful probe may.
  EXPECT_EQ(fleet::breaker_next(BackendHealth::kEjected, false, 1, 2, 4),
            BackendHealth::kEjected);
  EXPECT_EQ(fleet::breaker_next(BackendHealth::kEjected, true, 0, 2, 4),
            BackendHealth::kHealthy);
}

TEST(Breaker, ToStringNamesAllStates) {
  EXPECT_STREQ(fleet::to_string(BackendHealth::kHealthy), "HEALTHY");
  EXPECT_STREQ(fleet::to_string(BackendHealth::kSuspect), "SUSPECT");
  EXPECT_STREQ(fleet::to_string(BackendHealth::kEjected), "EJECTED");
}

// --- Decorrelated backoff --------------------------------------------------

TEST(Backoff, PureFunctionOfSeedJobAndAttempt) {
  const std::uint64_t seed = 0x6d786c666c656574ull;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const int a = fleet::decorrelated_backoff_ms(seed, 42, attempt, 25, 2000);
    const int b = fleet::decorrelated_backoff_ms(seed, 42, attempt, 25, 2000);
    EXPECT_EQ(a, b) << "attempt " << attempt;
  }
}

TEST(Backoff, StaysWithinBaseAndCap) {
  for (std::uint64_t job = 1; job <= 16; ++job) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const int ms = fleet::decorrelated_backoff_ms(7, job, attempt, 25, 500);
      EXPECT_GE(ms, 25) << "job " << job << " attempt " << attempt;
      EXPECT_LE(ms, 500) << "job " << job << " attempt " << attempt;
    }
  }
}

TEST(Backoff, DistinctJobsGetDecorrelatedSchedules) {
  // Not a statistical claim — just that the jitter stream is actually keyed
  // by job: across 32 jobs at attempt 3 we must see more than one value.
  int first = fleet::decorrelated_backoff_ms(7, 0, 3, 25, 2000);
  bool varied = false;
  for (std::uint64_t job = 1; job < 32 && !varied; ++job) {
    varied = fleet::decorrelated_backoff_ms(7, job, 3, 25, 2000) != first;
  }
  EXPECT_TRUE(varied);
}

// --- E2E fixtures ----------------------------------------------------------

// Process-wide counter total; 0 when never bumped.
std::int64_t counter(const char* name) {
  const auto counters = common::MetricsRegistry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  EXPECT_TRUE(is) << "cannot read " << p;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class FleetE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tmp_ = fs::temp_directory_path() / "muxlink-test-fleet";
    fs::remove_all(tmp_);
    fs::create_directories(tmp_);
    const auto nl = circuitgen::make_benchmark("c432", 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = 8;
    lopts.seed = 7;
    const auto locked = locking::lock_dmux(nl, lopts);
    bench_ = netlist::write_bench(locked.netlist);
  }

  static void TearDownTestSuite() { fs::remove_all(tmp_); }

  void SetUp() override {
    common::fault::disarm_all();
    common::set_num_threads(1);
  }
  void TearDown() override {
    common::fault::disarm_all();
    common::set_num_threads(0);
  }

  static core::AttackJobSpec small_job(std::uint64_t seed) {
    core::AttackJobSpec spec;
    spec.attack = "muxlink";
    spec.circuit = "c432";
    spec.bench = bench_;
    spec.hops = 2;
    spec.epochs = 2;
    spec.max_train_links = 400;
    spec.seed = seed;
    spec.scheme = "dmux";
    return spec;
  }

  static std::string socket_path(const std::string& name) {
    return (tmp_ / (name + ".sock")).string();
  }

  // Starts `n` single-worker daemons named <tag>0..<tag>n-1 and returns
  // their MXRPC1 addresses.
  static std::vector<std::string> start_backends(
      std::vector<std::unique_ptr<daemon::DaemonServer>>& servers, const std::string& tag,
      int n) {
    std::vector<std::string> addrs;
    for (int i = 0; i < n; ++i) {
      daemon::DaemonOptions dopts;
      dopts.socket_path = socket_path(tag + std::to_string(i));
      dopts.workers = 1;
      servers.push_back(std::make_unique<daemon::DaemonServer>(dopts));
      servers.back()->start();
      addrs.push_back("unix:" + dopts.socket_path);
    }
    return addrs;
  }

  static eval::CampaignOptions tiny_campaign(const fs::path& out_dir) {
    eval::CampaignOptions opts;
    opts.schemes = {"dmux", "simll"};
    opts.circuits = {"c432"};
    opts.attacks = {"muxlink", "untangle"};
    opts.key_bits = 8;
    opts.circuit_scale = 0.5;
    opts.epochs = 2;
    opts.hd_patterns = 64;
    opts.out_dir = out_dir.string();
    return opts;
  }

  static fs::path tmp_;
  static std::string bench_;
};

fs::path FleetE2E::tmp_;
std::string FleetE2E::bench_;

// --- Campaign-over-fleet byte identity -------------------------------------

TEST_F(FleetE2E, CampaignAggregateByteIdenticalAtOneTwoThreeBackends) {
  const std::string baseline =
      slurp(eval::run_campaign(tiny_campaign(tmp_ / "camp-local")).aggregate_path);
  EXPECT_NE(baseline.find("mean_kpa_percent"), std::string::npos);

  for (const int n : {1, 2, 3}) {
    std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
    auto opts = tiny_campaign(tmp_ / ("camp-fleet" + std::to_string(n)));
    opts.fleet_backends = start_backends(servers, "camp" + std::to_string(n) + "-", n);
    const auto result = eval::run_campaign(opts);
    EXPECT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(slurp(result.aggregate_path), baseline)
        << "fleet aggregate diverged at " << n << " backend(s)";
    for (auto& s : servers) s->stop();
  }
}

TEST_F(FleetE2E, CampaignSurvivesBackendKilledAndRestartedMidRun) {
  const std::string baseline =
      slurp(eval::run_campaign(tiny_campaign(tmp_ / "chaos-local")).aggregate_path);

  std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
  auto opts = tiny_campaign(tmp_ / "chaos-fleet");
  opts.fleet_backends = start_backends(servers, "chaos", 2);
  // Tight failover so retries land inside the test budget.
  opts.fleet_dispatch_timeout_ms = 4000;
  opts.fleet_max_attempts = 6;
  opts.fleet_retry_budget = 64;

  // Kill backend 0 shortly after the sweep starts, then restart it on the
  // same socket: in-flight jobs fail over, and the breaker re-admits the
  // revived daemon on a later heartbeat.
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    servers[0]->stop();
    servers[0].reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    daemon::DaemonOptions dopts;
    dopts.socket_path = socket_path("chaos0");
    dopts.workers = 1;
    servers[0] = std::make_unique<daemon::DaemonServer>(dopts);
    servers[0]->start();
  });

  // stop() drains, so the job running on backend 0 finishes and the kill
  // alone fails a dispatch only when a runner reaches the dead socket before
  // a heartbeat suspects it. Losing the first result in flight makes one
  // failover certain: that dispatch fails and its cell is re-dispatched.
  common::fault::arm("fleet.result", 1, common::fault::Action::kThrow);
  const std::int64_t failures_before = counter("fleet.dispatch_failures");
  const auto result = eval::run_campaign(opts);
  chaos.join();
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(slurp(result.aggregate_path), baseline)
      << "kill/restart chaos changed campaign bytes";
  EXPECT_GE(counter("fleet.dispatch_failures") - failures_before, 1)
      << "no dispatch failed, so the drill never exercised failover";
  for (auto& s : servers) {
    if (s) s->stop();
  }
}

// --- Coordinator drills ----------------------------------------------------

TEST_F(FleetE2E, ResultFaultRetriesOnceAndReproducesOneShotBytes) {
  const core::AttackJobSpec spec = small_job(9);
  const auto direct = core::run_attack_job(spec);

  // One backend, so the runner-thread fault site counts deterministically:
  // the first delivery throws, the second is the retry.
  std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
  FleetOptions fopts;
  fopts.backends = start_backends(servers, "retry", 1);
  fopts.heartbeat_interval_ms = 50;
  fopts.allow_local_fallback = false;
  FleetCoordinator coord(fopts);
  coord.start();
  common::fault::arm("fleet.result", 1, common::fault::Action::kThrow);

  const std::string id = coord.submit(spec);
  EXPECT_EQ(id, "f1");
  const auto r = coord.wait(id);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.backend, fopts.backends[0]);
  EXPECT_EQ(r.manifest.dump(), direct.manifest.dump()) << "the retry changed result bytes";
  EXPECT_EQ(r.key_string, direct.key_string);
  EXPECT_EQ(common::fault::hits("fleet.result"), 2u);

  const common::Json stats = coord.stats_json();
  EXPECT_EQ(stats.number_or("retries", -1.0), 1.0);
  EXPECT_EQ(stats.number_or("dispatch_failures", -1.0), 1.0);
  EXPECT_EQ(stats.number_or("jobs_completed", -1.0), 1.0);
  // The failure made the backend SUSPECT, which takes no dispatches; the
  // retry ran only because a heartbeat re-admitted it.
  EXPECT_EQ(coord.backend_health(fopts.backends[0]), BackendHealth::kHealthy);

  EXPECT_THROW(coord.wait("f999"), std::invalid_argument);

  coord.stop();
  for (auto& s : servers) s->stop();
}

TEST_F(FleetE2E, AllBackendsDeadDegradesToLocalWithIdenticalBytes) {
  const auto direct = core::run_attack_job(small_job(5));

  FleetOptions fopts;
  fopts.backends = {"unix:" + socket_path("nobody-home")};
  fopts.heartbeat_interval_ms = 50;
  fopts.heartbeat_timeout_ms = 200;
  fopts.suspect_after_failures = 1;
  fopts.eject_after_failures = 1;
  fopts.connect_attempts = 1;
  fopts.max_attempts_per_job = 2;
  fopts.backoff_base_ms = 1;
  fopts.backoff_cap_ms = 5;
  fopts.allow_local_fallback = true;
  FleetCoordinator coord(fopts);
  coord.start();

  const auto r = coord.run(small_job(5));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.backend, "local");
  EXPECT_EQ(r.manifest.dump(), direct.manifest.dump())
      << "local degradation changed result bytes";
  EXPECT_EQ(r.key_string, direct.key_string);

  const common::Json stats = coord.stats_json();
  EXPECT_GE(stats.number_or("local_runs", 0.0), 1.0);
  EXPECT_EQ(coord.backend_health(fopts.backends[0]), BackendHealth::kEjected);

  coord.stop();
}

TEST_F(FleetE2E, JobFailsAfterAttemptCapNamingTheDeadBackend) {
  FleetOptions fopts;
  fopts.backends = {"unix:" + socket_path("still-nobody")};
  // Keep the breaker out of the race: a slow heartbeat cadence and loose
  // thresholds leave the backend optimistically claimable while the runner
  // burns the per-job attempt cap.
  fopts.heartbeat_interval_ms = 10000;
  fopts.heartbeat_timeout_ms = 200;
  fopts.suspect_after_failures = 10;
  fopts.eject_after_failures = 100;
  fopts.connect_attempts = 1;
  fopts.max_attempts_per_job = 2;
  fopts.backoff_base_ms = 1;
  fopts.backoff_cap_ms = 5;
  fopts.allow_local_fallback = false;
  FleetCoordinator coord(fopts);
  coord.start();

  const auto r = coord.run(small_job(6));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.error.find("after 2 attempt(s)"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find(fopts.backends[0].substr(5)), std::string::npos)
      << "error must name the failing backend: " << r.error;

  coord.stop();
}

TEST_F(FleetE2E, QueuedJobsFailWhenWholeFleetEjectedAndFallbackDisabled) {
  FleetOptions fopts;
  fopts.backends = {"unix:" + socket_path("ejected-for-good")};
  fopts.heartbeat_interval_ms = 50;
  fopts.heartbeat_timeout_ms = 200;
  fopts.suspect_after_failures = 1;
  fopts.eject_after_failures = 1;
  fopts.connect_attempts = 1;
  // An attempt cap far above what the runner can burn before ejection: the
  // job must terminate through the all-ejected sweep, not attempt
  // exhaustion — without the sweep its waiter would block forever.
  fopts.max_attempts_per_job = 100;
  fopts.backoff_base_ms = 1;
  fopts.backoff_cap_ms = 5;
  fopts.allow_local_fallback = false;
  FleetCoordinator coord(fopts);
  coord.start();

  const auto r = coord.run(small_job(7));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("all backends ejected"), std::string::npos) << r.error;
  EXPECT_EQ(coord.backend_health(fopts.backends[0]), BackendHealth::kEjected);

  coord.stop();
}

}  // namespace
