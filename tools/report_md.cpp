// report_md — renders muxlink.run/v1 manifests as Markdown tables.
//
//   report_md <run1.json> [run2.json ...] [--out table.md]
//   report_md --serving <run1.json> [run2.json ...] [--out table.md]
//   report_md --daemon <run1.json> [run2.json ...] [--out table.md]
//   report_md --fleet <run1.json> [run2.json ...] [--out table.md]
//   report_md --campaign <campaign.json> [--out table.md]
//   report_md --layers <run1.json> [run2.json ...] [--out table.md]
//   report_md --check <run1.json> [run2.json ...]
//
// Default mode reads one or more RunManifest JSON files (as written by
// `muxlink attack --report`, tools/bench_pipeline, or tools/bench_kernels)
// and emits the paper-style reproduction table used by EXPERIMENTS.md:
// one row per run with AC/PC/KPA/HD where the run measured them, plus the
// training stats every attack run records. --serving renders bench_serving
// manifests as the cold-vs-warm serving table instead (EXPERIMENTS.md,
// DESIGN.md §11). --daemon renders bench_daemon manifests as the
// serving-at-scale table (sequential baseline vs concurrent daemon clients,
// DESIGN.md §13). --fleet renders bench_fleet manifests as the fleet
// fan-out table (sequential baseline vs coordinator dispatch to N
// backends, DESIGN.md §14). --campaign renders a `muxlink campaign` aggregate
// manifest as the defense x attack resilience matrix: one row per cell,
// with a verdict derived from KPA against the 50% +/- 12 chance band (the
// band the ANT/RNT protocol uses). --layers renders the per-layer DGCNN
// training profile from a manifest's observability block (the
// `gnn.layer.<layer>.{fwd,bwd}_s` timers, EXPERIMENTS.md). --check validates the manifests (schema
// tag, provenance
// fields, stage/result sanity) and prints one OK/FAIL line per file; exit 1
// if any file fails.
//
// Exit code 0 on success, 1 on validation failure or CLI misuse, 2 on
// processing errors (unreadable file, malformed JSON).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/run_manifest.h"
#include "tools/cli_args.h"

namespace {

using muxlink::common::Json;
using muxlink::common::RunManifest;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double result_or_nan(const RunManifest& m, const std::string& name) {
  for (const auto& [k, v] : m.results) {
    if (k == name) return v;
  }
  return std::nan("");
}

double stage_or_nan(const RunManifest& m, const std::string& name) {
  for (const auto& [k, v] : m.stages) {
    if (k == name) return v;
  }
  return std::nan("");
}

// "12.50" / "0.703" style cell, or "—" for a metric the run did not measure.
std::string cell(double v, int decimals = 2) {
  if (std::isnan(v)) return "—";
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(decimals);
  ss << v;
  return ss.str();
}

int check_manifest(const std::string& path, const Json& j) {
  std::vector<std::string> errors;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  require(j.string_or("schema", "") == "muxlink.run/v1", "schema != muxlink.run/v1");
  require(!j.string_or("tool", "").empty(), "missing tool");
  require(!j.string_or("git_sha", "").empty(), "missing git_sha");
  require(j.number_or("threads", 0.0) >= 1.0, "threads < 1");
  require(j.contains("seed"), "missing seed");
  require(!j.string_or("circuit", "").empty(), "missing circuit");
  require(j.contains("stages") && j.at("stages").is_object(), "missing stages object");
  require(j.contains("results") && j.at("results").is_object(), "missing results object");
  if (j.contains("stages") && j.at("stages").is_object()) {
    for (const auto& [name, v] : j.at("stages").members()) {
      require(v.is_number() && v.as_double() >= 0.0, "stage '" + name + "' not a time");
    }
  }
  if (j.contains("results") && j.at("results").is_object()) {
    for (const auto& [name, v] : j.at("results").members()) {
      require(v.is_number() && std::isfinite(v.as_double()), "result '" + name + "' not finite");
      if (name.ends_with("_percent") && v.is_number()) {
        const double p = v.as_double();
        require(p >= 0.0 && p <= 100.0, "result '" + name + "' outside [0,100]");
      }
    }
  }
  if (errors.empty()) {
    std::cout << "OK   " << path << "\n";
    return 0;
  }
  std::cout << "FAIL " << path << ":";
  for (const auto& e : errors) std::cout << " " << e << ";";
  std::cout << "\n";
  return 1;
}

std::string render_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Circuit | Scheme | K | AC % | PC % | KPA % | HD % | Val acc | Total s |\n";
  md << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunManifest& m : runs) {
    md << "| " << m.circuit << " | " << (m.scheme.empty() ? "—" : m.scheme) << " | ";
    if (m.key_bits >= 0) {
      md << m.key_bits;
    } else {
      md << "—";
    }
    md << " | " << cell(result_or_nan(m, "accuracy_percent"))
       << " | " << cell(result_or_nan(m, "precision_percent"))
       << " | " << cell(result_or_nan(m, "kpa_percent"))
       << " | " << cell(result_or_nan(m, "hd_percent"))
       << " | " << cell(result_or_nan(m, "best_val_accuracy"), 3)
       << " | " << cell(stage_or_nan(m, "total"), 2) << " |\n";
  }
  return md.str();
}

// Cold-vs-warm serving table for tools/bench_serving manifests.
std::string render_serving_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Circuit | K | Cold s | Warm s | Speedup | Bit-identical | MBytes mapped "
        "| Cache hits |\n";
  md << "|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunManifest& m : runs) {
    const double hits = result_or_nan(m, "cache_hits");
    const double misses = result_or_nan(m, "cache_misses");
    std::string hit_cell = "—";
    if (!std::isnan(hits) && !std::isnan(misses)) {
      hit_cell = cell(hits, 0) + "/" + cell(hits + misses, 0);
    }
    md << "| " << m.circuit << " | ";
    if (m.key_bits >= 0) {
      md << m.key_bits;
    } else {
      md << "—";
    }
    md << " | " << cell(stage_or_nan(m, "cold_total"), 3)
       << " | " << cell(stage_or_nan(m, "warm_total"), 3)
       << " | " << cell(result_or_nan(m, "warm_speedup"), 1) << "x"
       << " | " << (result_or_nan(m, "bit_identical") == 1.0 ? "yes" : "**NO**")
       << " | " << cell(result_or_nan(m, "bytes_mapped") / (1024.0 * 1024.0), 2)
       << " | " << hit_cell << " |\n";
  }
  return md.str();
}

// Serving-at-scale table for tools/bench_daemon manifests: the sequential
// one-shot baseline against N concurrent clients on a muxlinkd worker pool,
// plus the byte-identity verdict that gates the run.
std::string render_daemon_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Circuit | K | Jobs | Clients | Workers | Sequential s | Daemon s | Speedup "
        "| Byte-identical |\n";
  md << "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunManifest& m : runs) {
    md << "| " << m.circuit << " | ";
    if (m.key_bits >= 0) {
      md << m.key_bits;
    } else {
      md << "—";
    }
    md << " | " << cell(result_or_nan(m, "jobs"), 0)
       << " | " << cell(result_or_nan(m, "clients"), 0)
       << " | " << cell(result_or_nan(m, "daemon_workers"), 0)
       << " | " << cell(stage_or_nan(m, "sequential_warm"), 3)
       << " | " << cell(stage_or_nan(m, "daemon_warm"), 3)
       << " | " << cell(result_or_nan(m, "daemon_speedup"), 1) << "x"
       << " | " << (result_or_nan(m, "bit_identical") == 1.0 ? "yes" : "**NO**") << " |\n";
  }
  return md.str();
}

// Fleet serving table for tools/bench_fleet manifests: the sequential
// one-process baseline against the coordinator fanning the same jobs out to
// N muxlinkd backends, plus the byte-identity verdict that gates the run.
std::string render_fleet_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Circuit | K | Jobs | Backends | Workers | Sequential s | Fleet s | Speedup "
        "| Retries | Byte-identical |\n";
  md << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunManifest& m : runs) {
    md << "| " << m.circuit << " | ";
    if (m.key_bits >= 0) {
      md << m.key_bits;
    } else {
      md << "—";
    }
    md << " | " << cell(result_or_nan(m, "jobs"), 0)
       << " | " << cell(result_or_nan(m, "fleet_backends"), 0)
       << " | " << cell(result_or_nan(m, "backend_workers"), 0)
       << " | " << cell(stage_or_nan(m, "sequential_warm"), 3)
       << " | " << cell(stage_or_nan(m, "fleet_warm"), 3)
       << " | " << cell(result_or_nan(m, "fleet_speedup"), 1) << "x"
       << " | " << cell(result_or_nan(m, "retries"), 0)
       << " | " << (result_or_nan(m, "bit_identical") == 1.0 ? "yes" : "**NO**") << " |\n";
  }
  return md.str();
}

// Defense x attack resilience matrix for `muxlink campaign` aggregate
// manifests. The verdict compares KPA against the 50% +/- 12 chance band:
// above it the attack reads the key (vulnerable), inside it the defense
// holds (resilient), below it the defense actively misleads the attack
// (deceptive — worse than guessing).
std::string render_campaign_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Scheme | Circuit | Attack | K | AC % | PC % | KPA % | HD % | Verdict |\n";
  md << "|---|---|---|---:|---:|---:|---:|---:|---|\n";
  for (const RunManifest& m : runs) {
    if (!m.extra.is_object() || !m.extra.contains("cells")) {
      throw std::runtime_error("manifest has no extra.cells — not a campaign aggregate");
    }
    const Json& cells = m.extra.at("cells");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Json& c = cells.at(i);
      const double kpa = c.number_or("kpa_percent", std::nan(""));
      std::string verdict = "—";
      if (!std::isnan(kpa)) {
        if (kpa >= 62.0) {
          verdict = "vulnerable";
        } else if (kpa <= 38.0) {
          verdict = "deceptive";
        } else {
          verdict = "resilient";
        }
      }
      md << "| " << c.string_or("scheme", "—") << " | " << c.string_or("circuit", "—") << " | "
         << c.string_or("attack", "—") << " | "
         << cell(c.number_or("key_bits", std::nan("")), 0) << " | "
         << cell(c.number_or("accuracy_percent", std::nan(""))) << " | "
         << cell(c.number_or("precision_percent", std::nan(""))) << " | " << cell(kpa) << " | "
         << cell(c.number_or("hd_percent", std::nan(""))) << " | " << verdict << " |\n";
    }
  }
  return md.str();
}

// Per-layer DGCNN profile: one table per run from the observability block's
// `gnn.layer.<layer>.{fwd,bwd}_s` histograms (seconds summed over slots,
// every thread), with each layer's share of the profiled total.
std::string render_layers_table(const std::vector<RunManifest>& runs) {
  static const char* const kLayers[] = {"gconv", "sortpool", "conv1", "conv2", "dense1", "dense2"};
  std::ostringstream md;
  for (const RunManifest& m : runs) {
    md << "### " << m.tool << " · " << m.circuit << " · " << m.threads << " threads\n\n";
    const Json* hist = m.observability.is_object() ? m.observability.find("histograms") : nullptr;
    const auto seconds = [&](const std::string& name) {
      const Json* h = hist != nullptr ? hist->find(name) : nullptr;
      return h != nullptr ? h->number_or("sum", 0.0) : 0.0;
    };
    double fwd[std::size(kLayers)], bwd[std::size(kLayers)], fwd_total = 0.0, bwd_total = 0.0;
    for (std::size_t l = 0; l < std::size(kLayers); ++l) {
      const std::string base = std::string("gnn.layer.") + kLayers[l];
      fwd[l] = seconds(base + ".fwd_s");
      bwd[l] = seconds(base + ".bwd_s");
      fwd_total += fwd[l];
      bwd_total += bwd[l];
    }
    const double total = fwd_total + bwd_total;
    if (total <= 0.0) {
      md << "(no gnn.layer timers: metrics were off or the run trained nothing)\n\n";
      continue;
    }
    md << "| Layer | Forward s | Backward s | Share % |\n|---|---:|---:|---:|\n";
    for (std::size_t l = 0; l < std::size(kLayers); ++l) {
      md << "| " << kLayers[l] << " | " << cell(fwd[l], 3) << " | " << cell(bwd[l], 3) << " | "
         << cell(100.0 * (fwd[l] + bwd[l]) / total, 1) << " |\n";
    }
    md << "| total | " << cell(fwd_total, 3) << " | " << cell(bwd_total, 3) << " | 100.0 |\n\n";
  }
  return md.str();
}

}  // namespace

int main(int argc, char** argv) {
  const muxlink::tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"out", "check", "serving", "daemon", "fleet", "campaign", "layers"});
    std::vector<std::string> paths = args.positional();
    // The parser binds "--check run.json" / "--serving run.json" as the
    // flag's value; that token is really the first manifest path.
    if (const auto v = args.get("check"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("serving"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("daemon"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("fleet"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("campaign"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("layers"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (paths.empty()) {
      std::cerr << "usage: report_md <run.json>... [--out F]  |  report_md --check <run.json>...\n"
                   "       report_md --serving <run.json>...  |  report_md --daemon "
                   "<run.json>...  |  report_md --fleet <run.json>...  |  report_md "
                   "--campaign <campaign.json>...  |  report_md --layers <run.json>...\n";
      return 1;
    }
    if (args.has("check")) {
      int rc = 0;
      for (const std::string& path : paths) {
        rc |= check_manifest(path, Json::parse(read_file(path)));
      }
      return rc;
    }
    std::vector<RunManifest> runs;
    for (const std::string& path : paths) {
      runs.push_back(RunManifest::from_json(Json::parse(read_file(path))));
    }
    std::stable_sort(runs.begin(), runs.end(), [](const RunManifest& a, const RunManifest& b) {
      if (a.circuit != b.circuit) return a.circuit < b.circuit;
      if (a.scheme != b.scheme) return a.scheme < b.scheme;
      return a.key_bits < b.key_bits;
    });
    const std::string md = args.has("campaign") ? render_campaign_table(runs)
                           : args.has("serving") ? render_serving_table(runs)
                           : args.has("daemon")  ? render_daemon_table(runs)
                           : args.has("fleet")   ? render_fleet_table(runs)
                           : args.has("layers")  ? render_layers_table(runs)
                                                 : render_table(runs);
    if (const auto out = args.get("out")) {
      std::ofstream os(*out);
      if (!os) throw std::runtime_error("cannot write '" + *out + "'");
      os << md;
    } else {
      std::cout << md;
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
