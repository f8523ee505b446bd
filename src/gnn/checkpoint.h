// Crash-safe trainer checkpoints (DESIGN.md §8).
//
// A checkpoint is the COMPLETE trainer state at an epoch boundary, so that
// resuming the deterministic trainer (DESIGN.md §5) finishes bit-identical
// to an uninterrupted run. On disk it is an MXZOO1 container
// (gnn/container.h): tensor kinds param, best, adam_m and adam_v, each group
// in parameter order, and the cursor fields below in meta under "trainer".
// Files are written via common::atomic_write_file, so a crash mid-write
// leaves the previous complete checkpoint. Any malformation — including
// tensor groups that disagree and a missing or null cursor field — raises
// CheckpointError, never garbage state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gnn/matrix.h"

namespace muxlink::gnn {

// A corrupt, truncated, version-mismatched, or config-incompatible
// checkpoint. Maps to CLI exit code 5 (DESIGN.md §8 exit-code table).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct TrainerCheckpoint {
  // Run binding: resume refuses a checkpoint whose seed or epoch budget
  // differs from the requested run (it could not be bit-identical).
  std::uint64_t seed = 0;
  int total_epochs = 0;

  int epoch = 0;              // last completed epoch
  double learning_rate = 0.0;  // current LR (decayed by rollbacks)
  int rollbacks = 0;           // divergence rollbacks so far
  int best_epoch = -1;
  double best_val_accuracy = -1.0;
  double best_train_loss = std::numeric_limits<double>::infinity();
  long adam_t = 0;
  std::string rng_state;  // std::mt19937_64 via operator<< / operator>>

  std::vector<Matrix> params;
  std::vector<Matrix> best_params;
  std::vector<Matrix> adam_m;
  std::vector<Matrix> adam_v;
};

// In-memory encode/decode (exposed for tests; decode throws CheckpointError
// on any malformation).
std::string encode_checkpoint(const TrainerCheckpoint& ckpt);
TrainerCheckpoint decode_checkpoint(std::string_view bytes);

// Atomic write (temp + fsync + rename). Fault site `ckpt.write` fires
// before any byte is written; `io.atomic_rename` fires between temp fsync
// and rename (see common/fault.h).
void save_checkpoint_file(const TrainerCheckpoint& ckpt, const std::filesystem::path& path);

// Loads and validates; throws CheckpointError on missing/corrupt files.
TrainerCheckpoint load_checkpoint_file(const std::filesystem::path& path);

}  // namespace muxlink::gnn
