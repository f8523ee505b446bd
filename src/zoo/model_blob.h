// MXZOO1 — the binary, mmap-able trained-model container behind the model
// zoo (DESIGN.md §11). Unlike the portable text format (gnn/serialize.h,
// logical elements only), a zoo blob stores every tensor in the SIMD memory
// layout the kernels consume directly — rows × ld doubles, ld =
// Matrix::padded_cols(cols), each row 32-byte aligned, pad lanes zero — at
// 32-byte-aligned file offsets. A warm attack therefore mmap()s the file,
// verifies the CRC over the mapped bytes (no copy), and points the model's
// weight matrices INTO the mapping: deserialization costs zero tensor
// copies and the page cache shares the weights across processes.
//
// File layout (host-endian; a cache artifact like MXCKPT1, not an
// interchange format):
//
//   [0, 8)     magic "MXZOO1\0\n"
//   [8, 96)    fixed header:
//                u32 header_version (1)
//                u32 layout_version (gnn::kLayoutPaddedSimd)
//                u32 simd_lanes     (doubles per row-padding unit, 4)
//                u32 simd_align     (tensor offset alignment, 32)
//                u32 tensor_count
//                u32 flags          (bit 0: Adam moments present)
//                u64 meta_offset    (= 96)
//                u64 meta_len
//                u64 table_offset
//                u64 data_offset
//                u64 file_size
//                u32 payload_crc    (CRC-32 over [meta_offset, file_size))
//                zero padding to 96
//   meta       JSON: model config (topology, sortpool_k, seed, adam_t) +
//              registry provenance (circuit, scheme, hops, training config)
//   table      tensor_count × { u32 kind (0 param / 1 adam_m / 2 adam_v),
//                u32 rows, u32 cols, u32 ld, u64 offset, u64 bytes }
//   data       tensors back to back, each offset % simd_align == 0
//
// Readers fall back to a streaming copy when the blob cannot be mapped in
// place (foreign simd_lanes/ld, unaligned offsets, mmap failure, or
// MUXLINK_ZOO_MMAP=0); an unknown layout_version is rejected outright —
// that is the mis-read-`ld` hazard the explicit field exists to prevent.
#pragma once

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "gnn/dgcnn.h"

namespace muxlink::zoo {

// Malformed, truncated, corrupt, or layout-incompatible zoo artifact.
// Maps to the model-file CLI exit code 4 (DESIGN.md §8).
class ZooError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  // Force the streaming-copy reader even when mapping would work (tests,
  // MUXLINK_ZOO_MMAP=0).
  bool force_copy = false;
  // The handle will only ever score (the registry's served handles): drop
  // the model's gradient and Adam buffers and, once the CRC pass is done,
  // release the mapped pages of the optimizer tensors, which scoring never
  // reads. Such a model cannot be trained or materialize()d into a trainer.
  bool score_only = false;
};

// False when MUXLINK_ZOO_MMAP=0 forces the streaming-copy reader.
bool mmap_enabled();

// Loads a blob, preferring the zero-copy mmap path. Throws ZooError on a
// missing/corrupt/incompatible file.
LoadedModel load_model_blob(const std::filesystem::path& path, const LoadOptions& opts = {});

// Header + meta only (no CRC pass over the tensors): the cheap probe behind
// `muxlink zoo list` / `zoo info`. Throws ZooError when even the header or
// meta region is unreadable.
common::Json read_blob_meta(const std::filesystem::path& path);

}  // namespace muxlink::zoo
