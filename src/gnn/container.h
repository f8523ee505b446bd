// MXZOO1 — the one tensor container (DESIGN.md §11): zoo blobs,
// `--save-model` files (zoo/model_blob.h) and trainer checkpoints
// (gnn/checkpoint.h). Tensors are stored in the SIMD memory layout the
// kernels consume — rows × ld doubles, ld = Matrix::padded_cols(cols), pads
// zero — at 32-byte-aligned offsets, so a reader can map the file and point
// matrices into it.
//
// File layout (host-endian; a local artifact, not an interchange format):
//
//   [0, 8)     magic "MXZOO1\0\n"
//   [8, 96)    fixed header:
//                u32 header_version (1)
//                u32 layout_version (1: padded SIMD rows)
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
//   meta       JSON: a model's topology + provenance, or a trainer cursor
//   table      tensor_count × { u32 kind (TensorKind), u32 rows, u32 cols,
//                u32 ld, u64 offset, u64 bytes }
//   data       tensors back to back, each offset % simd_align == 0
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "gnn/matrix.h"

namespace muxlink::gnn {

// Malformed, truncated, corrupt, or layout-incompatible container; CLI exit
// code 4 (DESIGN.md §8). The checkpoint API re-raises it as CheckpointError.
class ModelFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class TensorKind : std::uint32_t { kParam = 0, kAdamM = 1, kAdamV = 2, kBest = 3 };

struct TensorEntry {
  TensorKind kind = TensorKind::kParam;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint32_t ld = 0;
  std::uint64_t offset = 0;  // absolute file offset of the first double
  std::uint64_t bytes = 0;   // rows * ld * sizeof(double)
};

// Serializes the tensors, in the given order, behind `meta`.
std::string encode_container(const std::vector<std::pair<TensorKind, const Matrix*>>& tensors,
                             const common::Json& meta);

// A verified container over bytes the caller keeps alive.
struct Container {
  const char* base = nullptr;
  std::uint32_t simd_lanes = 0;
  std::uint32_t simd_align = 0;
  common::Json meta;
  std::vector<TensorEntry> table;

  // Owned copy of a tensor's logical elements, read through the stored ld
  // (so any SIMD build's file loads); pads come back zero.
  Matrix copy(const TensorEntry& e) const;
  std::vector<Matrix> copy_all(TensorKind kind) const;  // table order
};

// The one strict decoder: magic, versions, section and tensor bounds (all
// checked before they drive a read or an allocation), CRC, meta JSON.
// Throws ModelFormatError on any malformation.
Container decode_container(const char* base, std::size_t size);

// Whole-file read; a missing or unreadable file is a ModelFormatError.
std::string read_container_file(const std::filesystem::path& path);

// Header + meta only, without reading the tensors: the cheap probe behind
// `muxlink zoo info`.
common::Json read_container_meta(const std::filesystem::path& path);

// Strict meta readers: a missing, null or mistyped field (an int passes as
// a double), or a meta_int() value outside int's range, is a
// ModelFormatError — never a default.
const common::Json& meta_field(const common::Json& obj, std::string_view key,
                               common::Json::Type type);
int meta_int(const common::Json& obj, std::string_view key);

}  // namespace muxlink::gnn
