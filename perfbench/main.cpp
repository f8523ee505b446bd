// perfbench: the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload cold-attack|warm-serve
//                    --seed N --seconds S --trace 0|1 [--tiny] [--tamper]
//
// Every input (locked circuits, training seeds, the job mix) is derived from
// --seed; the program under test only ever sees the generated BENCH text and
// job specs. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the line before it
// records the host and environment, and a details file (plus the span trace
// of a traced run) lands in .bench_out/. --tiny shrinks every workload for the
// benchmark's own tests; --tamper corrupts one expected manifest, which must
// then be counted as a failure.
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuitgen/suites.h"
#include "common/build_info.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "decompose.h"
#include "gnn/simd.h"
#include "locking/schemes.h"
#include "muxlink/engine.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"
#include "trace.h"
#include "zoo/registry.h"

extern char** environ;

namespace {

using namespace muxlink;
using common::Json;
using perfbench::Clock;
using perfbench::Span;
using perfbench::Tracer;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Metric names and units (BENCHMARK.json lists the same set).
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Job time is reported as p10, not p50 or p90: the shared host alternates,
// for 5 to 20 s at a time, between a fast state and one ~1.4x slower, so a
// run's median or tail lands in either state (README.md, "End-to-end
// metrics"). The details file still records p50, p90 and every job's time.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"job_p10_ms", "ms"}, {"jobs_per_s", "1/s"},
    {"kpa_pct", "%"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gnn.train_s", "s"},
    {"gnn.train_samples_per_s", "1/s"},
    {"gnn.train_nt_s", "s"},
    {"gnn.train_1t_s", "s"},
    {"gnn.train_speedup", "x"},
    {"gnn.predict_us", "us"},
    {"graph.train_extract_s", "s"},
    {"graph.extract_us_per_link", "us"},
    {"graph.build_ms", "ms"},
    {"netlist.parse_ms", "ms"},
    {"netlist.write_ms", "ms"},
    {"attacks.key_trace_ms", "ms"},
    {"zoo.probe_ms", "ms"},
    {"zoo.insert_ms", "ms"},
    {"zoo.score_cache_ms", "ms"},
    {"zoo.cache_hit_ratio", "ratio"},
    {"zoo.cache_lookups", "count"},
    {"zoo.bytes_mapped", "bytes"},
    {"muxlink.job_ms", "ms"},
    {"muxlink.self_ms", "ms"},
    {"muxlink.engine_train_s", "s"},
    {"daemon.overhead_ms", "ms"},
    {"daemon.requests_per_job", "ratio"},
    {"daemon.jobs_failed", "count"},
    {"daemon.protocol_errors", "count"},
    {"common.pool_threads", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  if (!is) return {};
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// High-water resident set size of this process, in MiB.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// Counts attempted checks and failures; safe to share between threads.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(m_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (problems_.size() < 20) problems_.push_back(what);
    }
  }
  std::size_t attempted() const {
    std::lock_guard<std::mutex> lock(m_);
    return attempted_;
  }
  std::size_t failed() const {
    std::lock_guard<std::mutex> lock(m_);
    return failed_;
  }
  std::vector<std::string> problems() const {
    std::lock_guard<std::mutex> lock(m_);
    return problems_;
  }

 private:
  mutable std::mutex m_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
};

// Removes a temporary directory on every exit path.
class TempDir {
 public:
  explicit TempDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Arguments and workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
};

// Relative to the working directory, which run.py keeps at the checkout root.
constexpr const char* kOutDir = ".bench_out";
constexpr const char* kTmpDir = ".bench_tmp";

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: expected 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--tamper") {
      a.tamper = true;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

struct LockPlan {
  const char* circuit;
  const char* scheme;
  std::size_t key_bits;
  int variants;  // locks of the circuit, each with its own seed
  int models;    // training seeds per lock (one job spec, one zoo entry each)
};

// Every workload spreads its jobs over several seed-drawn locks and training
// seeds: per-job cost depends on the lock (subgraph sizes set the model's
// SortPooling k and so its size), and averaging over many inputs keeps one
// run's figures close to the next run's on another seed.
struct WorkloadPlan {
  std::vector<LockPlan> locks;
  int epochs = 2;
  std::size_t links = 800;
  bool served = true;  // closed-loop daemon clients (else one cold attack after another)
  int setup_reps = 3;  // set-ups per run; setup_s is their median
};

WorkloadPlan plan_for(const std::string& name, bool tiny) {
  WorkloadPlan p;
  if (name == "cold-attack") {
    p.locks = {{"c880", "dmux", 32, 128, 1}};
    p.served = false;
    p.setup_reps = 9;
  } else if (name == "warm-serve") {
    p.locks = {{"c432", "dmux", 32, 2, 1},
               {"c432", "symmetric", 32, 2, 1},
               {"c880", "dmux", 64, 2, 1},
               {"c880", "symmetric", 64, 2, 1}};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "' (valid: cold-attack, warm-serve)");
  }
  if (tiny) {
    for (LockPlan& l : p.locks) {
      l.circuit = "c432";
      l.key_bits = 8;
      l.variants = std::min(l.variants, 2);
      l.models = std::min(l.models, 2);
    }
    p.epochs = 1;
    p.links = 120;
    p.setup_reps = 1;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Set-up: lock the circuits, and for served workloads train every spec once
// into the zoo and record its served reference manifest.
// ---------------------------------------------------------------------------

struct Setup {
  std::vector<core::AttackJobSpec> specs;
  std::vector<std::string> reference;  // served manifest per spec (served workloads)
  std::vector<std::string> cold_key;   // deciphered key of the cold run per spec
};

double kpa_of(const Json& manifest) {
  const Json* results = manifest.find("results");
  if (!results || !results->contains("kpa_percent")) {
    throw std::runtime_error("manifest has no kpa_percent result");
  }
  return results->number_or("kpa_percent", 0.0);
}

Setup set_up(const WorkloadPlan& p, std::uint64_t seed, const fs::path& zoo, bool tamper,
             Tally& tally) {
  Setup s;
  for (std::size_t l = 0; l < p.locks.size(); ++l) {
    const LockPlan& lp = p.locks[l];
    const netlist::Netlist original = circuitgen::make_benchmark(lp.circuit, 1.0);
    for (int v = 0; v < lp.variants; ++v) {
      const std::uint64_t tag = seed * 4096 + l * 256 + static_cast<std::uint64_t>(v);
      locking::MuxLockOptions lopts;
      lopts.key_bits = lp.key_bits;
      lopts.seed = 1 + mix(tag) % 1000000;
      const locking::LockedDesign locked = locking::resolve_scheme(lp.scheme)(original, lopts);
      core::AttackJobSpec base;
      base.circuit = locked.netlist.name();
      base.bench = netlist::write_bench(locked.netlist);
      base.epochs = p.epochs;
      base.max_train_links = p.links;
      base.scheme = lp.scheme;
      base.use_zoo = true;
      base.zoo_dir = zoo.string();
      base.truth_key = locked.key_string();
      for (int m = 0; m < lp.models; ++m) {
        core::AttackJobSpec spec = base;
        spec.seed = 1 + mix(mix(tag) + static_cast<std::uint64_t>(m)) % 1000000;
        s.specs.push_back(std::move(spec));
      }
    }
  }
  if (!p.served) return s;
  for (const core::AttackJobSpec& spec : s.specs) {
    const core::AttackJobOutcome cold = core::run_attack_job(spec);
    const core::AttackJobOutcome served = core::run_attack_job(spec);
    std::string ref = served.manifest.dump();
    // A served manifest legitimately differs from the cold one (no training
    // statistics); the key must not.
    tally.check(served.key_string == cold.key_string,
                "set-up: served key differs from the cold run's (" + spec.circuit + ")");
    if (tamper && s.reference.empty()) ref += " ";
    s.reference.push_back(std::move(ref));
    s.cold_key.push_back(cold.key_string);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Measured loops.
// ---------------------------------------------------------------------------

struct LoopResult {
  std::vector<double> latency_ms;  // completed, correct jobs only
  std::vector<double> kpa;
  double elapsed_s = 0.0;
  double rss_mb = 0.0;  // VmHWM once the first kRssMarkJobs jobs completed
  Json daemon_stats;
};

// Number of jobs after which peak RSS is sampled. The daemon keeps every job
// record for the life of the process, so RSS keeps growing with the job
// count; sampling at a fixed count keeps the metric independent of
// throughput.
constexpr std::size_t kRssMarkJobs = 64;

// One closed-loop client per daemon worker, each on its own connection:
// submit, wait for the result, check it, repeat until the deadline.
LoopResult serve_loop(const Setup& s, const fs::path& zoo, const fs::path& sock, double seconds,
                      std::uint64_t seed, int workers, Tracer& tracer,
                      std::atomic<std::int64_t>& next_job, Tally& tally) {
  daemon::DaemonOptions dopts;
  dopts.socket_path = sock.string();
  dopts.workers = workers;
  dopts.connection_handlers = workers;
  dopts.max_queue = static_cast<std::size_t>(4 * workers + 8);
  dopts.zoo_dir = zoo.string();
  daemon::DaemonServer server(dopts);
  server.start();

  LoopResult r;
  std::mutex m;
  std::atomic<std::size_t> completed{0};
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < workers; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> lat, kpa;
      std::mt19937_64 rng(mix(seed * 131 + static_cast<std::uint64_t>(c)));
      try {
        daemon::ClientOptions copts;
        copts.address = "unix:" + sock.string();
        daemon::DaemonClient client(std::move(copts));
        while (Clock::now() < deadline) {
          const std::size_t i = rng() % s.specs.size();
          const std::int64_t job = next_job++;
          const auto t0 = Clock::now();
          Json reply;
          std::string error;
          {
            Span span(tracer, "daemon.request", -1, job);
            try {
              reply = client.wait_for_result(client.submit(s.specs[i]));
            } catch (const std::exception& e) {
              error = e.what();
            }
          }
          const double ms = seconds_since(t0) * 1e3;
          const Json* manifest = reply.find("manifest");
          const bool ok = error.empty() && reply.string_or("state", "") == "DONE" && manifest &&
                          manifest->dump() == s.reference[i] &&
                          reply.string_or("key", "") == s.cold_key[i];
          tally.check(ok, "served job " + std::to_string(job) + " (" + s.specs[i].circuit + "): " +
                              (error.empty() ? "result differs from the set-up reference" : error));
          if (ok) {
            lat.push_back(ms);
            kpa.push_back(kpa_of(*manifest));
          }
          if (++completed == kRssMarkJobs) {
            const double rss = peak_rss_mb();
            std::lock_guard<std::mutex> lock(m);
            r.rss_mb = rss;
          }
        }
      } catch (const std::exception& e) {
        tally.check(false, std::string("client: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(m);
      r.latency_ms.insert(r.latency_ms.end(), lat.begin(), lat.end());
      r.kpa.insert(r.kpa.end(), kpa.begin(), kpa.end());
    });
  }
  for (std::thread& t : clients) t.join();
  r.elapsed_s = seconds_since(start);
  r.daemon_stats = server.stats_json();
  server.stop();
  if (r.rss_mb == 0.0) r.rss_mb = peak_rss_mb();
  return r;
}

// One cold attack after another, each on the next spec and against a fresh
// empty zoo, which must receive exactly one entry. After the measured
// interval the first spec runs once more, untimed, and must reproduce its
// first manifest byte for byte.
LoopResult cold_loop(const Setup& s, const fs::path& tmp, double seconds, bool tamper,
                     Tally& tally) {
  LoopResult r;
  auto attack = [&](std::size_t i) -> std::string {
    core::AttackJobSpec spec = s.specs[i % s.specs.size()];
    const fs::path zoo = tmp / ("cold-" + std::to_string(i));
    spec.zoo_dir = zoo.string();
    try {
      const auto t0 = Clock::now();
      const core::AttackJobOutcome out = core::run_attack_job(spec);
      const double ms = seconds_since(t0) * 1e3;
      const bool inserted = zoo::Registry(zoo).list().size() == 1;
      tally.check(inserted, "cold attack " + std::to_string(i) + ": no single zoo insert");
      fs::remove_all(zoo);
      if (inserted) {
        r.latency_ms.push_back(ms);
        r.kpa.push_back(kpa_of(out.manifest));
      }
      return out.manifest.dump();
    } catch (const std::exception& e) {
      tally.check(false, "cold attack " + std::to_string(i) + ": " + e.what());
      fs::remove_all(zoo);
      return {};
    }
  };
  const auto start = Clock::now();
  std::string first = attack(0);
  if (tamper) first += " ";
  r.rss_mb = peak_rss_mb();
  std::size_t i = 1;
  while (seconds_since(start) < seconds) attack(i++);
  r.elapsed_s = seconds_since(start);
  const std::size_t measured = r.latency_ms.size();
  tally.check(attack(i - i % s.specs.size() + s.specs.size()) == first && !first.empty(),
              "cold attack: a repeat of the first spec gave a different manifest");
  r.latency_ms.resize(measured);
  r.kpa.resize(measured);
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer numbers from the benchmark's own calls.
// ---------------------------------------------------------------------------

constexpr const char* kRoot = "muxlink.decomposed_job";

struct TraceOutcome {
  Json metrics;
  Json self_time;
};

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

TraceOutcome traced_run(const WorkloadPlan& p, const Args& a, const Setup& s, const fs::path& tmp,
                        const fs::path& zoo, Tally& tally, Tracer& on) {
  Tracer off(false);
  const std::size_t threads = common::num_threads();
  std::atomic<std::int64_t> next_job{0};
  const auto run_start = Clock::now();

  // (1) Rebuild one cold attack from public calls and compare it with the
  // engine bit for bit: target scores, zoo blob, and a 1-thread retrain.
  core::AttackJobSpec engine_spec = s.specs[0];
  engine_spec.zoo_dir = (tmp / "check-engine").string();
  const netlist::Netlist locked0 = netlist::parse_bench(engine_spec.bench, engine_spec.circuit);
  const perfbench::Targets targets0 = perfbench::trace_targets(locked0);
  const core::EngineResult engine = core::score_links(locked0, targets0.excluded, targets0.wires,
                                                      perfbench::options_for(engine_spec));
  const std::string key0 = engine.serving.zoo_key;
  core::AttackJobSpec decomposed_spec = s.specs[0];
  decomposed_spec.zoo_dir = (tmp / "check-decomposed").string();
  const std::int64_t check_job = next_job++;
  perfbench::Decomposed dec;
  {
    Span root(on, kRoot, -1, check_job);
    dec = perfbench::run_decomposed(decomposed_spec, key0, true, on, root.id(), check_job);
  }
  tally.check(bits_equal(dec.scores, engine.scores),
              "rebuilt cold attack: target scores differ from score_links");
  const std::string engine_blob = read_file(zoo::Registry(engine_spec.zoo_dir).entry_path(key0));
  tally.check(!engine_blob.empty() &&
                  engine_blob == read_file(zoo::Registry(decomposed_spec.zoo_dir).entry_path(key0)),
              "rebuilt cold attack: zoo blob differs from the engine's");
  double train_nt_s = 0.0;
  for (const auto& sp : on.spans()) {
    if (sp.job == check_job && std::string(sp.name) == "gnn.train") {
      train_nt_s = static_cast<double>(sp.end_ns - sp.start_ns) / 1e9;
    }
  }
  common::set_num_threads(1);
  const auto t1 = Clock::now();
  const perfbench::Trained one = perfbench::train_like_engine(
      perfbench::options_for(decomposed_spec), dec.sortpool_k, dec.train_set);
  const double train_1t_s = seconds_since(t1);
  common::set_num_threads(threads);
  tally.check(one.report.final_train_loss == dec.training.final_train_loss &&
                  one.report.best_val_accuracy == dec.training.best_val_accuracy,
              "training at 1 thread differs from training at " + std::to_string(threads));
  const std::size_t train_samples = dec.training.train_samples;
  dec = {};

  // (2) Served workloads: the engine against the set-up zoo gives each
  // spec's reference scores, its registry key and the serving statistics.
  core::ServingStats serving = engine.serving;
  std::vector<std::vector<double>> warm_scores;
  std::vector<std::string> keys;
  if (p.served) {
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
      const netlist::Netlist locked = netlist::parse_bench(s.specs[i].bench, s.specs[i].circuit);
      const perfbench::Targets t = perfbench::trace_targets(locked);
      const core::EngineResult er =
          core::score_links(locked, t.excluded, t.wires, perfbench::options_for(s.specs[i]));
      tally.check(er.serving.zoo_hit, "engine missed the set-up zoo for spec " + std::to_string(i));
      if (i == 0) {
        serving = er.serving;
        tally.check(bits_equal(er.scores, engine.scores),
                    "zoo-served scores differ from the cold engine's");
      }
      keys.push_back(er.serving.zoo_key);
      warm_scores.push_back(er.scores);
    }
  }

  // (3) Rounds of: the job through core::run_attack_job, then the rebuilt
  // job traced and untraced (in alternating order). Cold workloads use a
  // fresh zoo for each of the three.
  std::vector<double> job_ms, traced_ms, untraced_ms;
  std::vector<std::int64_t> round_jobs;
  std::vector<std::string> reference(s.specs.size());
  std::mt19937_64 rng(mix(a.seed * 977 + 5));
  const double phase_a = p.served ? 0.4 * a.seconds : a.seconds;
  const auto start_a = Clock::now();
  std::size_t round = 0;
  do {
    const std::size_t idx = p.served ? rng() % s.specs.size() : round % s.specs.size();
    const std::string tag = std::to_string(round);
    auto spec_in = [&](const char* prefix) {
      core::AttackJobSpec spec = s.specs[idx];
      if (!p.served) spec.zoo_dir = (tmp / (prefix + tag)).string();
      return spec;
    };
    try {
      const core::AttackJobSpec spec = spec_in("a-");
      const auto t0 = Clock::now();
      const core::AttackJobOutcome out = core::run_attack_job(spec);
      job_ms.push_back(seconds_since(t0) * 1e3);
      const std::string dump = out.manifest.dump();
      if (p.served) {
        tally.check(dump == s.reference[idx], "in-process job differs from the set-up reference");
      } else {
        if (reference[idx].empty()) reference[idx] = dump;
        tally.check(dump == reference[idx], "cold job differs from the first run of its spec");
      }
      std::string key;
      std::string engine_blob;
      if (p.served) {
        key = keys[idx];
      } else {
        const auto entries = zoo::Registry(spec.zoo_dir).list();
        tally.check(entries.size() == 1, "cold job did not insert exactly one zoo entry");
        key = entries.at(0).key;
        engine_blob = read_file(entries.at(0).path);
      }
      std::vector<std::vector<double>> rebuilt;
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == (round % 2 == 0);
        const std::int64_t job = traced ? next_job++ : -1;
        const core::AttackJobSpec rspec = spec_in(traced ? "t-" : "u-");
        perfbench::Decomposed d;
        const auto t = Clock::now();
        if (traced) {
          Span root(on, kRoot, -1, job);
          d = perfbench::run_decomposed(rspec, key, !p.served, on, root.id(), job);
        } else {
          d = perfbench::run_decomposed(rspec, key, !p.served, off, -1, -1);
        }
        (traced ? traced_ms : untraced_ms).push_back(seconds_since(t) * 1e3);
        if (traced) round_jobs.push_back(job);
        if (p.served) {
          tally.check(bits_equal(d.scores, warm_scores[idx]),
                      "rebuilt warm job scores differ from the engine's");
        } else {
          tally.check(read_file(zoo::Registry(rspec.zoo_dir).entry_path(key)) == engine_blob,
                      "rebuilt cold job's zoo blob differs from the engine's");
        }
        rebuilt.push_back(std::move(d.scores));
      }
      tally.check(bits_equal(rebuilt[0], rebuilt[1]), "traced and untraced rebuilt jobs differ");
    } catch (const std::exception& e) {
      tally.check(false, "round " + tag + ": " + e.what());
    }
    if (!p.served) {
      for (const char* prefix : {"a-", "t-", "u-"}) fs::remove_all(tmp / (prefix + tag));
    }
    ++round;
  } while (seconds_since(start_a) < phase_a);

  // (4) Served workloads: the measured daemon loop, with a span per request.
  LoopResult loop;
  if (p.served) {
    const double left = std::max(0.5, a.seconds - seconds_since(run_start));
    loop = serve_loop(s, zoo, tmp / "d.sock", left, a.seed, static_cast<int>(threads), on,
                      next_job, tally);
  }

  // (5) Per-layer metrics from the spans.
  const perfbench::TraceIndex index(on.spans());
  auto layer_ms = [&](const char* name) { return median_or_zero(index.per_job_ms(kRoot, name)); };
  auto layer_us = [&](const char* name) {
    return median_or_zero(index.per_job_mean_us(kRoot, name));
  };
  std::vector<double> round_children_ms;
  for (std::size_t r : index.roots(kRoot)) {
    if (std::find(round_jobs.begin(), round_jobs.end(), index.spans()[r].job) != round_jobs.end()) {
      round_children_ms.push_back(static_cast<double>(index.children_ns(r)) / 1e6);
    }
  }
  const double train_s = layer_ms("gnn.train") / 1e3;
  const double job_p50 = median_or_zero(job_ms);
  const double untraced = median_or_zero(untraced_ms);
  const std::uint64_t lookups = serving.cache_hits + serving.cache_misses;
  const Json& st = loop.daemon_stats;
  const double jobs_completed = st.number_or("jobs_completed", 0.0);

  std::map<std::string, double> v;
  v["gnn.train_s"] = train_s;
  v["gnn.train_samples_per_s"] =
      train_s > 0.0 ? static_cast<double>(train_samples) * p.epochs / train_s : 0.0;
  v["gnn.train_nt_s"] = train_nt_s;
  v["gnn.train_1t_s"] = train_1t_s;
  v["gnn.train_speedup"] = train_nt_s > 0.0 ? train_1t_s / train_nt_s : 0.0;
  v["gnn.predict_us"] = layer_us("gnn.predict");
  v["graph.train_extract_s"] = layer_ms("graph.train_extract") / 1e3;
  v["graph.extract_us_per_link"] = layer_us("graph.extract");
  v["graph.build_ms"] = layer_ms("graph.build");
  v["netlist.parse_ms"] = layer_ms("netlist.parse");
  v["netlist.write_ms"] = layer_ms("netlist.write");
  v["attacks.key_trace_ms"] = layer_ms("attacks.key_trace");
  v["zoo.probe_ms"] = layer_ms("zoo.probe");
  v["zoo.insert_ms"] = layer_ms("zoo.insert");
  v["zoo.score_cache_ms"] = layer_ms("zoo.score_cache");
  v["zoo.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(serving.cache_hits) / static_cast<double>(lookups) : 0.0;
  v["zoo.cache_lookups"] = static_cast<double>(lookups);
  v["zoo.bytes_mapped"] = static_cast<double>(serving.bytes_mapped);
  v["muxlink.job_ms"] = job_p50;
  v["muxlink.self_ms"] = job_p50 - median_or_zero(round_children_ms);
  v["muxlink.engine_train_s"] = engine.train_seconds;
  v["daemon.overhead_ms"] = p.served ? median_or_zero(loop.latency_ms) - job_p50 : 0.0;
  v["daemon.requests_per_job"] =
      jobs_completed > 0 ? st.number_or("requests_served", 0.0) / jobs_completed : 0.0;
  v["daemon.jobs_failed"] = st.number_or("jobs_failed", 0.0);
  v["daemon.protocol_errors"] = st.number_or("protocol_errors", 0.0);
  v["common.pool_threads"] = static_cast<double>(threads);
  v["trace.overhead_ms"] = median_or_zero(traced_ms) - untraced;
  v["trace.overhead_pct"] =
      untraced > 0.0 ? 100.0 * (median_or_zero(traced_ms) - untraced) / untraced : 0.0;
  v["trace.spans"] = static_cast<double>(on.spans().size());

  TraceOutcome out;
  out.metrics = Json::object();
  for (const MetricDef& d : kPerLayer) {
    Json m = Json::object();
    m["value"] = v.at(d.name);
    m["unit"] = d.unit;
    out.metrics[d.name] = std::move(m);
  }
  out.self_time = Json::object();
  for (const auto& [name, t] : index.totals_by_name()) {
    Json j = Json::object();
    j["count"] = static_cast<long long>(t.count);
    j["total_ms"] = t.total_ms;
    j["self_ms"] = t.self_ms;
    out.self_time[name] = std::move(j);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Host and environment record.
// ---------------------------------------------------------------------------

// Records every MUXLINK_* variable and removes it, so runs see the program's
// defaults whatever the caller's shell exports.
Json take_muxlink_env() {
  Json env = Json::object();
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("MUXLINK_", 0) != 0) continue;
    const auto eq = entry.find('=');
    names.push_back(entry.substr(0, eq));
    env[names.back()] = eq == std::string::npos ? "" : entry.substr(eq + 1);
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  return env;
}

Json host_json(std::size_t nproc, const Json& cleared_env) {
  Json h = Json::object();
  char name[256] = {};
  if (::gethostname(name, sizeof name - 1) == 0) h["hostname"] = std::string(name);
  utsname u{};
  if (::uname(&u) == 0) h["kernel"] = std::string(u.sysname) + " " + u.release + " " + u.machine;
  h["nproc"] = static_cast<long long>(nproc);
  h["pool_threads"] = static_cast<long long>(common::num_threads());
  h["cpu"] = gnn::cpu_info_json();
  h["build_type"] = common::build_type();
  h["build_flags"] = common::build_flags();
  h["git_sha"] = common::build_git_sha();
  h["muxlink_env_cleared"] = cleared_env;
  return h;
}

int run(const Args& a) {
  const Json cleared_env = take_muxlink_env();
  const std::size_t nproc = online_cpus();
  common::set_num_threads(nproc);
  const WorkloadPlan plan = plan_for(a.workload, a.tiny);

  TempDir tmp(fs::path(kTmpDir) / (a.workload + "-" + std::to_string(::getpid())));
  fs::create_directories(kOutDir);
  const std::string stem = a.workload + "-s" + std::to_string(a.seed);
  Tally tally;

  // Set up `setup_reps` times into separate zoos; the last one is measured.
  std::vector<double> setup_s;
  Setup setup;
  fs::path zoo;
  const int reps = a.trace ? 1 : plan.setup_reps;
  for (int r = 0; r < reps; ++r) {
    if (!zoo.empty()) fs::remove_all(zoo);
    zoo = tmp.path() / ("zoo-" + std::to_string(r));
    const auto t0 = Clock::now();
    setup = set_up(plan, a.seed, zoo, a.tamper, tally);
    setup_s.push_back(seconds_since(t0));
  }

  Json metrics = Json::object();
  Json self_time;
  std::vector<double> latency_ms;
  Tracer tracer(a.trace);
  if (a.trace) {
    TraceOutcome t = traced_run(plan, a, setup, tmp.path(), zoo, tally, tracer);
    metrics = std::move(t.metrics);
    self_time = std::move(t.self_time);
    perfbench::write_spans_jsonl(tracer.spans(), fs::path(kOutDir) / (stem + "-spans.jsonl"));
  } else {
    std::atomic<std::int64_t> next_job{0};
    const LoopResult loop =
        plan.served ? serve_loop(setup, zoo, tmp.path() / "d.sock", a.seconds, a.seed,
                                 static_cast<int>(nproc), tracer, next_job, tally)
                    : cold_loop(setup, tmp.path(), a.seconds, a.tamper, tally);
    std::map<std::string, double> v;
    v["setup_s"] = median(setup_s);
    v["job_p10_ms"] = quantile(loop.latency_ms, 0.1);
    v["jobs_per_s"] = static_cast<double>(loop.latency_ms.size()) / loop.elapsed_s;
    v["kpa_pct"] = mean(loop.kpa);
    v["peak_rss_mb"] = loop.rss_mb;
    for (const MetricDef& d : kEndToEnd) {
      Json m = Json::object();
      m["value"] = v.at(d.name);
      m["unit"] = d.unit;
      metrics[d.name] = std::move(m);
    }
    latency_ms = loop.latency_ms;
  }

  Json details = Json::object();
  details["workload"] = a.workload;
  details["seed"] = static_cast<long long>(a.seed);
  details["seconds"] = a.seconds;
  details["trace"] = a.trace;
  details["host"] = host_json(nproc, cleared_env);
  details["setup_s_each"] = Json::array();
  for (double x : setup_s) details["setup_s_each"].push_back(x);
  details["metrics"] = metrics;
  if (a.trace) details["self_time_by_span"] = self_time;
  if (!latency_ms.empty()) {
    details["job_p50_ms"] = median(latency_ms);
    details["job_p90_ms"] = quantile(latency_ms, 0.9);
  }
  details["latency_ms_each"] = Json::array();
  for (double x : latency_ms) details["latency_ms_each"].push_back(x);
  details["problems"] = Json::array();
  for (const std::string& p : tally.problems()) details["problems"].push_back(p);
  {
    std::ofstream os(fs::path(kOutDir) / (stem + "-t" + (a.trace ? "1" : "0") + ".json"));
    os << details.dump_pretty() << "\n";
  }
  for (const std::string& p : tally.problems()) std::cerr << "perfbench: FAILED: " << p << "\n";

  Json info = Json::object();
  info["perfbench_host"] = details["host"];
  std::cout << info.dump() << "\n";
  Json result = Json::object();
  result["correct"] = tally.failed() == 0;
  result["attempted"] = static_cast<long long>(std::max<std::size_t>(1, tally.attempted()));
  result["failed"] = static_cast<long long>(tally.failed());
  result["metrics"] = std::move(metrics);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
