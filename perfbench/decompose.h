// One MuxLink attack job rebuilt from the modules' public functions, with a
// span around each call, so the traced run can say where a job's time goes
// without instrumenting the program. The call sequence mirrors
// core::run_attack_job -> MuxLinkAttack::run -> core::score_links for a
// single-model ensemble; the traced run checks that the rebuilt job's target
// scores (and its zoo blob) are bit-equal to the engine's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gnn/trainer.h"
#include "muxlink/attack.h"
#include "muxlink/job.h"
#include "netlist/netlist.h"
#include "trace.h"

namespace perfbench {

// The engine options core::run_attack_job derives from a job spec.
muxlink::core::MuxLinkOptions options_for(const muxlink::core::AttackJobSpec& spec);

// Key-MUX gates to excise and the interleaved (a0, b0, a1, b1, ...) target
// wires, exactly as MuxLinkAttack::run hands them to score_links.
struct Targets {
  std::vector<muxlink::netlist::GateId> excluded;
  std::vector<muxlink::core::TargetWire> wires;
};
Targets trace_targets(const muxlink::netlist::Netlist& locked);

struct Decomposed {
  std::vector<double> scores;  // parallel to Targets::wires
  // Cold jobs only: the encoded training set, the model's SortPooling k and
  // the training report, kept so the caller can retrain at another thread
  // count.
  std::vector<muxlink::gnn::GraphSample> train_set;
  int sortpool_k = 0;
  muxlink::gnn::TrainReport training;
};

// Runs the job spec's attack up to its target scores. `zoo_key` is the
// member-0 registry key the engine derives for this spec (its config hash
// is private to the engine, so the caller reads it from a prior engine run).
// A warm job (`cold` false) must be served from the zoo and throws
// std::runtime_error when the entry is missing; a cold job trains and
// inserts. Spans are children of `parent` and tagged with `job`.
Decomposed run_decomposed(const muxlink::core::AttackJobSpec& spec, const std::string& zoo_key,
                          bool cold, Tracer& tracer, std::int64_t parent, std::int64_t job);

struct Trained {
  muxlink::gnn::Dgcnn model;
  muxlink::gnn::TrainReport report;
};

// Trains a fresh model on `train_set` exactly as the engine does for
// ensemble member 0, on whatever pool size is current.
Trained train_like_engine(const muxlink::core::MuxLinkOptions& opts, int sortpool_k,
                          const std::vector<muxlink::gnn::GraphSample>& train_set);

}  // namespace perfbench
