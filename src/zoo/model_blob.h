// Trained models as MXZOO1 containers (gnn/container.h, DESIGN.md §11): zoo
// blobs and `muxlink attack --save-model` files. A warm attack mmap()s the
// file, verifies the CRC over the mapped bytes, and points the model's
// weight matrices INTO the mapping (zero tensor copies; the page cache
// shares weights across processes), falling back to a streaming copy when
// the blob cannot be mapped in place (foreign simd_lanes/ld, unaligned
// offsets, mmap failure, or LoadOptions::force_copy).
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "common/json.h"
#include "gnn/container.h"
#include "gnn/dgcnn.h"

namespace muxlink::zoo {

// Malformed, truncated, corrupt, or layout-incompatible zoo artifact: the
// container's format error, CLI exit code 4 (DESIGN.md §8).
using ZooError = gnn::ModelFormatError;

// Serializes `model` (and, when `with_optimizer`, its Adam moments + step
// counter) into MXZOO1 bytes. `meta` is embedded verbatim plus the fields
// the loader needs to reconstruct the DgcnnConfig (written by this call).
std::string encode_model_blob(const gnn::Dgcnn& model, common::Json meta, bool with_optimizer);

// A model loaded from a blob. When `mapped` is true the weight matrices are
// read-only views into `mapping` (zero-copy); the struct must outlive every
// use of `model`. Scoring works directly on views; fine-tuning must call
// materialize() first (the warm-start path does).
struct LoadedModel {
  gnn::Dgcnn model;
  common::Json meta;
  bool mapped = false;
  std::size_t bytes_mapped = 0;           // file bytes mmap'd (0 on fallback)
  std::shared_ptr<void> mapping;          // keepalive for the views

  // Deep-copies mapped weights (and releases the mapping) so the model can
  // be trained. No-op for fallback-loaded models.
  void materialize();
};

struct LoadOptions {
  // Load the Adam moments (needed for warm-start fine-tuning; the scoring
  // path skips the copy). Moments are always owned, never views: training
  // writes them in place.
  bool with_optimizer = false;
  // Force the streaming-copy reader even when mapping would work (tests).
  bool force_copy = false;
  // The handle will only ever score (the registry's served handles): drop
  // the model's gradient and Adam buffers and, once the CRC pass is done,
  // release the mapped pages of the optimizer tensors, which scoring never
  // reads. Such a model cannot be trained or materialize()d into a trainer.
  bool score_only = false;
};

// Loads a blob, preferring the zero-copy mmap path. Throws ZooError on a
// missing/corrupt/incompatible file.
LoadedModel load_model_blob(const std::filesystem::path& path, const LoadOptions& opts = {});

// Header + meta only (no CRC pass over the tensors): the cheap probe behind
// `muxlink zoo info`. Throws ZooError when even the header or meta region is
// unreadable.
inline common::Json read_blob_meta(const std::filesystem::path& path) {
  return gnn::read_container_meta(path);
}

}  // namespace muxlink::zoo
