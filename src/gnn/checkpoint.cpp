#include "gnn/checkpoint.h"

#include <cmath>
#include <iterator>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "gnn/container.h"

namespace muxlink::gnn {

namespace {

// Table order on disk: the four groups back to back, each in parameter order.
constexpr TensorKind kGroupKinds[] = {TensorKind::kParam, TensorKind::kBest, TensorKind::kAdamM,
                                      TensorKind::kAdamV};

// Cursor fields in meta.trainer besides seed, adam_t and rng_state.
constexpr std::pair<const char*, int TrainerCheckpoint::*> kIntFields[] = {
    {"total_epochs", &TrainerCheckpoint::total_epochs},
    {"epoch", &TrainerCheckpoint::epoch},
    {"rollbacks", &TrainerCheckpoint::rollbacks},
    {"best_epoch", &TrainerCheckpoint::best_epoch}};
constexpr std::pair<const char*, double TrainerCheckpoint::*> kDoubleFields[] = {
    {"learning_rate", &TrainerCheckpoint::learning_rate},
    {"best_val_accuracy", &TrainerCheckpoint::best_val_accuracy},
    {"best_train_loss", &TrainerCheckpoint::best_train_loss}};

TrainerCheckpoint decode_container_checkpoint(std::string_view bytes) {
  const Container c = decode_container(bytes.data(), bytes.size());

  // Every group must mirror the parameter group's shapes, checked on the
  // table before any tensor is copied. parse_table admits kinds 0..3 only.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes[std::size(kGroupKinds)];
  for (const TensorEntry& e : c.table) {
    shapes[static_cast<std::size_t>(e.kind)].emplace_back(e.rows, e.cols);
  }
  for (const auto& group : shapes) {
    if (group != shapes[0]) throw ModelFormatError("checkpoint tensor groups disagree");
  }

  const common::Json& t = meta_field(c.meta, "trainer", common::Json::Type::kObject);
  TrainerCheckpoint ckpt;
  // The u64 seed travels as its int64 bit pattern.
  ckpt.seed = static_cast<std::uint64_t>(meta_field(t, "seed", common::Json::Type::kInt).as_int());
  for (const auto& [key, field] : kIntFields) ckpt.*field = meta_int(t, key);
  for (const auto& [key, field] : kDoubleFields) {
    ckpt.*field = meta_field(t, key, common::Json::Type::kDouble).as_double();
  }
  ckpt.adam_t = static_cast<long>(meta_field(t, "adam_t", common::Json::Type::kInt).as_int());
  ckpt.rng_state = meta_field(t, "rng_state", common::Json::Type::kString).as_string();
  ckpt.params = c.copy_all(TensorKind::kParam);
  ckpt.best_params = c.copy_all(TensorKind::kBest);
  ckpt.adam_m = c.copy_all(TensorKind::kAdamM);
  ckpt.adam_v = c.copy_all(TensorKind::kAdamV);
  return ckpt;
}

}  // namespace

std::string encode_checkpoint(const TrainerCheckpoint& ckpt) {
  const std::vector<Matrix>* groups[] = {&ckpt.params, &ckpt.best_params, &ckpt.adam_m,
                                         &ckpt.adam_v};
  std::vector<std::pair<TensorKind, const Matrix*>> tensors;
  for (std::size_t g = 0; g < std::size(groups); ++g) {
    if (groups[g]->size() != ckpt.params.size()) {
      throw std::invalid_argument("encode_checkpoint: tensor group sizes differ");
    }
    for (const Matrix& m : *groups[g]) tensors.emplace_back(kGroupKinds[g], &m);
  }
  common::Json meta = common::Json::object();
  common::Json& t = meta["trainer"];
  t["seed"] = ckpt.seed;
  for (const auto& [key, field] : kIntFields) t[key] = ckpt.*field;
  for (const auto& [key, field] : kDoubleFields) {
    // JSON has no non-finite numbers (they print as null, which decoding
    // rejects): refuse to write a checkpoint that could not be resumed.
    if (!std::isfinite(ckpt.*field)) {
      throw std::invalid_argument(std::string("encode_checkpoint: non-finite ") + key);
    }
    t[key] = ckpt.*field;
  }
  t["adam_t"] = ckpt.adam_t;
  t["rng_state"] = ckpt.rng_state;
  return encode_container(tensors, meta);
}

TrainerCheckpoint decode_checkpoint(std::string_view bytes) {
  try {
    return decode_container_checkpoint(bytes);
  } catch (const ModelFormatError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
}

void save_checkpoint_file(const TrainerCheckpoint& ckpt, const std::filesystem::path& path) {
  MUXLINK_FAULT_POINT("ckpt.write");
  common::atomic_write_file(path, encode_checkpoint(ckpt));
}

TrainerCheckpoint load_checkpoint_file(const std::filesystem::path& path) {
  try {
    return decode_container_checkpoint(read_container_file(path));
  } catch (const ModelFormatError& e) {
    throw CheckpointError("'" + path.string() + "': " + e.what());
  }
}

}  // namespace muxlink::gnn
