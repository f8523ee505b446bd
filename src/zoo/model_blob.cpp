#include "zoo/model_blob.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "gnn/serialize.h"

namespace muxlink::zoo {

namespace {

constexpr char kMagic[8] = {'M', 'X', 'Z', 'O', 'O', '1', '\0', '\n'};
constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kHeaderLen = 96;  // magic + fixed fields + zero pad
constexpr std::uint32_t kHeaderVersion = 1;
constexpr std::uint32_t kFlagOptimizer = 1u << 0;
constexpr std::size_t kTableEntryLen = 4 * 4 + 2 * 8;  // kind/rows/cols/ld + offset/bytes
// Same corrupt-header allocation bounds as gnn/checkpoint.cpp.
constexpr std::uint32_t kMaxTensors = 4096;
constexpr std::uint64_t kMaxTensorElems = 1ull << 28;
constexpr std::uint64_t kMaxMetaLen = 1ull << 20;
constexpr std::size_t kCrcChunk = 1ull << 20;  // CRC the mapping 1 MiB at a time

enum TensorKind : std::uint32_t { kParam = 0, kAdamM = 1, kAdamV = 2 };

[[noreturn]] void fail(const std::string& what) { throw ZooError("zoo blob: " + what); }

// --- little binary helpers (the MXCKPT1 idiom: raw host-endian bytes) -------

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

struct Cursor {
  const char* p;
  std::size_t left;

  template <typename T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left < sizeof(T)) fail(std::string("truncated ") + what);
    T value;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return value;
  }
};

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) { return (v + a - 1) / a * a; }

struct TensorEntry {
  std::uint32_t kind = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint32_t ld = 0;
  std::uint64_t offset = 0;  // absolute file offset of the first double
  std::uint64_t bytes = 0;   // rows * ld * sizeof(double)
};

struct Header {
  std::uint32_t layout_version = 0;
  std::uint32_t simd_lanes = 0;
  std::uint32_t simd_align = 0;
  std::uint32_t tensor_count = 0;
  std::uint32_t flags = 0;
  std::uint64_t meta_offset = 0;
  std::uint64_t meta_len = 0;
  std::uint64_t table_offset = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t file_size = 0;
  std::uint32_t payload_crc = 0;
};

// Parses and sanity-bounds the fixed header against the actual byte count.
// Every later access is within [0, size) afterwards.
Header parse_header(const char* base, std::size_t size) {
  if (size < kHeaderLen) fail("file shorter than the fixed header");
  if (std::memcmp(base, kMagic, kMagicLen) != 0) fail("bad magic (not an MXZOO1 blob)");
  Cursor c{base + kMagicLen, size - kMagicLen};
  const auto header_version = c.get<std::uint32_t>("header version");
  if (header_version != kHeaderVersion) {
    fail("unsupported header version " + std::to_string(header_version));
  }
  Header h;
  h.layout_version = c.get<std::uint32_t>("layout version");
  h.simd_lanes = c.get<std::uint32_t>("simd lanes");
  h.simd_align = c.get<std::uint32_t>("simd align");
  h.tensor_count = c.get<std::uint32_t>("tensor count");
  h.flags = c.get<std::uint32_t>("flags");
  h.meta_offset = c.get<std::uint64_t>("meta offset");
  h.meta_len = c.get<std::uint64_t>("meta length");
  h.table_offset = c.get<std::uint64_t>("table offset");
  h.data_offset = c.get<std::uint64_t>("data offset");
  h.file_size = c.get<std::uint64_t>("file size");
  h.payload_crc = c.get<std::uint32_t>("payload crc");

  // The explicit layout field exists exactly so a reader never guesses `ld`:
  // anything this build does not understand is rejected, not "handled".
  if (h.layout_version != static_cast<std::uint32_t>(gnn::kLayoutPaddedSimd)) {
    fail("unsupported tensor layout " + std::to_string(h.layout_version) +
         " (this build reads layout " + std::to_string(gnn::kLayoutPaddedSimd) + ")");
  }
  if (h.simd_lanes == 0 || h.simd_align == 0 || h.simd_align % sizeof(double) != 0) {
    fail("malformed simd geometry");
  }
  if (h.tensor_count == 0 || h.tensor_count > kMaxTensors) fail("implausible tensor count");
  if (h.meta_len > kMaxMetaLen) fail("implausible meta length");
  if (h.file_size != size) {
    fail("header file size " + std::to_string(h.file_size) + " != actual " +
         std::to_string(size) + " (truncated or grown)");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.tensor_count) * kTableEntryLen;
  if (h.meta_offset != kHeaderLen || h.meta_offset + h.meta_len > size ||
      h.table_offset != h.meta_offset + h.meta_len || h.table_offset + table_bytes > size ||
      h.data_offset < h.table_offset + table_bytes || h.data_offset > size) {
    fail("malformed section offsets");
  }
  return h;
}

std::vector<TensorEntry> parse_table(const char* base, const Header& h) {
  std::vector<TensorEntry> table;
  table.reserve(h.tensor_count);
  Cursor c{base + h.table_offset, static_cast<std::size_t>(h.data_offset - h.table_offset)};
  for (std::uint32_t i = 0; i < h.tensor_count; ++i) {
    TensorEntry e;
    e.kind = c.get<std::uint32_t>("tensor kind");
    e.rows = c.get<std::uint32_t>("tensor rows");
    e.cols = c.get<std::uint32_t>("tensor cols");
    e.ld = c.get<std::uint32_t>("tensor ld");
    e.offset = c.get<std::uint64_t>("tensor offset");
    e.bytes = c.get<std::uint64_t>("tensor bytes");
    if (e.kind > kAdamV) fail("unknown tensor kind " + std::to_string(e.kind));
    if (e.ld < e.cols || static_cast<std::uint64_t>(e.rows) * e.ld > kMaxTensorElems) {
      fail("implausible tensor geometry " + std::to_string(e.rows) + "x" +
           std::to_string(e.cols) + " ld " + std::to_string(e.ld));
    }
    if (e.bytes != static_cast<std::uint64_t>(e.rows) * e.ld * sizeof(double)) {
      fail("tensor byte count disagrees with its geometry");
    }
    if (e.offset < h.data_offset || e.offset + e.bytes > h.file_size) {
      fail("tensor data outside the file");
    }
    table.push_back(e);
  }
  return table;
}

void verify_crc(const char* base, const Header& h) {
  common::Crc32 crc;
  std::size_t off = h.meta_offset;
  while (off < h.file_size) {
    const std::size_t n = std::min(kCrcChunk, static_cast<std::size_t>(h.file_size - off));
    crc.update(base + off, n);
    off += n;
  }
  if (crc.value() != h.payload_crc) fail("crc32 mismatch (corrupt blob)");
}

common::Json parse_meta(const char* base, const Header& h) {
  try {
    return common::Json::parse(std::string_view(base + h.meta_offset,
                                                static_cast<std::size_t>(h.meta_len)));
  } catch (const common::JsonError& e) {
    fail(std::string("malformed meta JSON: ") + e.what());
  }
}

// Rebuilds the DgcnnConfig the blob was trained with from meta.model.
std::pair<int, gnn::DgcnnConfig> config_of(const common::Json& meta) {
  try {
    const common::Json& m = meta.at("model");
    gnn::DgcnnConfig cfg;
    cfg.conv_channels.clear();
    for (const common::Json& c : m.at("conv_channels").items()) {
      cfg.conv_channels.push_back(static_cast<int>(c.as_int()));
    }
    cfg.conv1d_channels1 = static_cast<int>(m.at("conv1d_channels1").as_int());
    cfg.conv1d_channels2 = static_cast<int>(m.at("conv1d_channels2").as_int());
    cfg.conv1d_kernel2 = static_cast<int>(m.at("conv1d_kernel2").as_int());
    cfg.dense_units = static_cast<int>(m.at("dense_units").as_int());
    cfg.sortpool_k = static_cast<int>(m.at("sortpool_k").as_int());
    cfg.dropout = m.at("dropout").as_double();
    cfg.learning_rate = m.at("learning_rate").as_double();
    cfg.seed = static_cast<std::uint64_t>(m.at("seed").as_int());
    const int feature_dim = static_cast<int>(m.at("feature_dim").as_int());
    if (feature_dim < 1 || cfg.conv_channels.empty()) fail("malformed model meta");
    return {feature_dim, cfg};
  } catch (const common::JsonError& e) {
    fail(std::string("meta lacks the model topology: ") + e.what());
  }
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open '" + path.string() + "'");
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof()) fail("read failed on '" + path.string() + "'");
  return bytes;
}

struct Mapping {
  void* addr = nullptr;
  std::size_t len = 0;
};

// mmap the whole file read-only; returns {nullptr, 0} when the file cannot
// be mapped (the caller falls back to a buffered read).
Mapping map_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return {};
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  if (addr == MAP_FAILED) return {};
  // The scoring pass touches every weight; ask the kernel to fault the whole
  // blob in ahead of first use instead of page-at-a-time.
  ::madvise(addr, len, MADV_WILLNEED);
  return {addr, len};
}

// Drops this process's pages of the mapped bytes past the last weight
// tensor (the Adam moments, which encode_model_blob lays out after the
// parameters). The CRC pass faulted them in; a scoring handle never reads
// them again, so they would only inflate resident memory. Best-effort: the
// pages refault from the file if anything ever touches them.
void release_tail(const char* base, std::size_t size, const std::vector<TensorEntry>& table) {
  std::uint64_t params_end = 0;
  for (const TensorEntry& e : table) {
    if (e.kind == kParam) params_end = std::max(params_end, e.offset + e.bytes);
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  const std::uint64_t start = align_up(addr + params_end, static_cast<std::uint64_t>(page)) - addr;
  if (start < size) ::madvise(const_cast<char*>(base) + start, size - start, MADV_DONTNEED);
}

}  // namespace

std::string encode_model_blob(const gnn::Dgcnn& model, common::Json meta, bool with_optimizer) {
  // Collect the tensors in table order: params, then (optionally) the Adam
  // first and second moments, each group in parameter-index order.
  std::vector<std::pair<TensorKind, const gnn::Matrix*>> tensors;
  const std::vector<gnn::Matrix> params = model.save_parameters();
  gnn::Dgcnn::OptimizerState opt;
  for (const gnn::Matrix& p : params) tensors.emplace_back(kParam, &p);
  if (with_optimizer) {
    opt = model.optimizer_state();
    for (const gnn::Matrix& m : opt.m) tensors.emplace_back(kAdamM, &m);
    for (const gnn::Matrix& v : opt.v) tensors.emplace_back(kAdamV, &v);
  }
  if (tensors.empty() || tensors.size() > kMaxTensors) {
    throw ZooError("encode_model_blob: implausible tensor count");
  }

  // Self-describing meta: whatever provenance the caller recorded plus the
  // exact topology the loader needs to rebuild the DgcnnConfig.
  const gnn::DgcnnConfig& cfg = model.config();
  meta["format"] = "muxlink-zoo-blob/v1";
  common::Json& m = meta["model"];
  m["feature_dim"] = model.feature_dim();
  common::Json channels = common::Json::array();
  for (int c : cfg.conv_channels) channels.push_back(c);
  m["conv_channels"] = std::move(channels);
  m["conv1d_channels1"] = cfg.conv1d_channels1;
  m["conv1d_channels2"] = cfg.conv1d_channels2;
  m["conv1d_kernel2"] = cfg.conv1d_kernel2;
  m["dense_units"] = cfg.dense_units;
  m["sortpool_k"] = cfg.sortpool_k;
  m["dropout"] = cfg.dropout;
  m["learning_rate"] = cfg.learning_rate;
  m["seed"] = cfg.seed;
  if (with_optimizer) meta["adam_t"] = static_cast<long long>(opt.t);
  const std::string meta_json = meta.dump();

  // Lay the file out: header | meta | table | aligned tensor data. Tensor
  // byte counts are multiples of kSimdAlign (ld is a multiple of kSimdLanes
  // doubles), so aligning the first offset aligns them all.
  const std::uint64_t meta_offset = kHeaderLen;
  const std::uint64_t meta_len = meta_json.size();
  const std::uint64_t table_offset = meta_offset + meta_len;
  const std::uint64_t data_offset =
      align_up(table_offset + tensors.size() * kTableEntryLen, gnn::kSimdAlign);
  std::vector<TensorEntry> table;
  table.reserve(tensors.size());
  std::uint64_t offset = data_offset;
  for (const auto& [kind, t] : tensors) {
    TensorEntry e;
    e.kind = kind;
    e.rows = static_cast<std::uint32_t>(t->rows);
    e.cols = static_cast<std::uint32_t>(t->cols);
    e.ld = static_cast<std::uint32_t>(t->ld);
    e.offset = offset;
    e.bytes = static_cast<std::uint64_t>(t->rows) * t->ld * sizeof(double);
    table.push_back(e);
    offset += e.bytes;
  }
  const std::uint64_t file_size = offset;

  std::string payload;  // everything the CRC covers: [meta_offset, file_size)
  payload.reserve(static_cast<std::size_t>(file_size - meta_offset));
  payload += meta_json;
  for (const TensorEntry& e : table) {
    put(payload, e.kind);
    put(payload, e.rows);
    put(payload, e.cols);
    put(payload, e.ld);
    put(payload, e.offset);
    put(payload, e.bytes);
  }
  payload.append(static_cast<std::size_t>(data_offset - table_offset) -
                     tensors.size() * kTableEntryLen,
                 '\0');
  for (const auto& [kind, t] : tensors) {
    const double* src = t->borrowed() ? t->view : t->data.data();
    payload.append(reinterpret_cast<const char*>(src),
                   static_cast<std::size_t>(t->rows) * t->ld * sizeof(double));
  }

  std::string out;
  out.reserve(static_cast<std::size_t>(file_size));
  out.append(kMagic, kMagicLen);
  put(out, kHeaderVersion);
  put(out, static_cast<std::uint32_t>(gnn::kLayoutPaddedSimd));
  put(out, static_cast<std::uint32_t>(gnn::kSimdLanes));
  put(out, static_cast<std::uint32_t>(gnn::kSimdAlign));
  put(out, static_cast<std::uint32_t>(tensors.size()));
  put(out, with_optimizer ? kFlagOptimizer : 0u);
  put(out, meta_offset);
  put(out, meta_len);
  put(out, table_offset);
  put(out, data_offset);
  put(out, file_size);
  put(out, common::crc32(payload));
  out.append(kHeaderLen - out.size(), '\0');
  out += payload;
  return out;
}

void LoadedModel::materialize() {
  if (!mapped) return;
  std::vector<gnn::Matrix> params = model.save_parameters();  // views share the mapping
  for (gnn::Matrix& p : params) p.materialize();
  model.load_parameters(params);
  mapped = false;
  bytes_mapped = 0;
  mapping.reset();
}

bool mmap_enabled() {
  const char* v = std::getenv("MUXLINK_ZOO_MMAP");
  return v == nullptr || v[0] != '0' || v[1] != '\0';
}

LoadedModel load_model_blob(const std::filesystem::path& path, const LoadOptions& opts) {
  const bool want_mmap = !opts.force_copy && mmap_enabled();

  // Get the bytes: prefer a shared mapping, fall back to a buffered slurp.
  std::shared_ptr<void> mapping;
  std::string buffer;
  const char* base = nullptr;
  std::size_t size = 0;
  if (want_mmap) {
    const Mapping m = map_file(path);
    if (m.addr != nullptr) {
      mapping = std::shared_ptr<void>(m.addr, [len = m.len](void* p) { ::munmap(p, len); });
      base = static_cast<const char*>(m.addr);
      size = m.len;
    }
  }
  if (base == nullptr) {
    buffer = slurp(path);
    base = buffer.data();
    size = buffer.size();
  }

  const Header h = parse_header(base, size);
  verify_crc(base, h);
  const common::Json meta = parse_meta(base, h);
  const std::vector<TensorEntry> table = parse_table(base, h);
  auto [feature_dim, cfg] = config_of(meta);

  // Zero-copy is only sound when the on-disk geometry IS this build's
  // in-memory geometry: same lanes/alignment, each ld what padded_cols gives,
  // every tensor offset aligned. Otherwise copy logical elements through the
  // stored ld — correctness never depends on the writer's SIMD build.
  bool mappable = mapping != nullptr && h.simd_lanes == gnn::kSimdLanes &&
                  h.simd_align == gnn::kSimdAlign;
  for (const TensorEntry& e : table) {
    if (e.ld != static_cast<std::uint32_t>(gnn::Matrix::padded_cols(static_cast<int>(e.cols))) ||
        e.offset % gnn::kSimdAlign != 0 ||
        (reinterpret_cast<std::uintptr_t>(base) + e.offset) % gnn::kSimdAlign != 0) {
      mappable = false;
    }
  }

  std::vector<gnn::Matrix> params;
  gnn::Dgcnn::OptimizerState opt;
  for (const TensorEntry& e : table) {
    const auto rows = static_cast<int>(e.rows);
    const auto cols = static_cast<int>(e.cols);
    gnn::Matrix t;
    if (mappable && e.kind == kParam) {
      // Weights point INTO the mapping; predict() only ever reads them.
      t = gnn::Matrix::borrow(rows, cols, reinterpret_cast<const double*>(base + e.offset));
    } else {
      // Owned copy, logical elements only (the pads are re-established by
      // the Matrix constructor) — Adam moments are always copied because
      // training writes them in place.
      t = gnn::Matrix(rows, cols);
      for (int r = 0; r < rows; ++r) {
        std::memcpy(t.row(r), base + e.offset + static_cast<std::uint64_t>(r) * e.ld * sizeof(double),
                    static_cast<std::size_t>(cols) * sizeof(double));
      }
    }
    switch (e.kind) {
      case kParam: params.push_back(std::move(t)); break;
      case kAdamM: opt.m.push_back(std::move(t)); break;
      case kAdamV: opt.v.push_back(std::move(t)); break;
      default: fail("unknown tensor kind");  // unreachable: parse_table rejected it
    }
  }

  LoadedModel out{gnn::Dgcnn(feature_dim, cfg), meta, false, 0, nullptr};
  try {
    out.model.load_parameters(params);
    if (opts.with_optimizer) {
      if ((h.flags & kFlagOptimizer) == 0) {
        fail("blob carries no optimizer state (re-train or score without --warm-start)");
      }
      opt.t = static_cast<long>(meta.int_or("adam_t", 0));
      out.model.set_optimizer_state(opt);
    }
  } catch (const std::invalid_argument& e) {
    fail(std::string("tensors do not match the declared topology: ") + e.what());
  }
  if (opts.score_only) {
    out.model.drop_training_state();
    if (mappable) release_tail(base, size, table);
  }
  if (mappable) {
    out.mapped = true;
    out.bytes_mapped = size;
    out.mapping = std::move(mapping);
  }
  return out;
}

common::Json read_blob_meta(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open '" + path.string() + "'");
  std::string head(kHeaderLen, '\0');
  if (!is.read(head.data(), static_cast<std::streamsize>(kHeaderLen))) {
    fail("file shorter than the fixed header");
  }
  // parse_header validates file_size against the byte count it is given, so
  // probe the real size first rather than mapping/slurping the tensors.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot stat '" + path.string() + "'");
  head.resize(static_cast<std::size_t>(size), '\0');
  const Header h = parse_header(head.data(), head.size());
  std::string meta_bytes(static_cast<std::size_t>(h.meta_len), '\0');
  if (!is.read(meta_bytes.data(), static_cast<std::streamsize>(h.meta_len))) {
    fail("truncated meta region");
  }
  try {
    return common::Json::parse(meta_bytes);
  } catch (const common::JsonError& e) {
    fail(std::string("malformed meta JSON: ") + e.what());
  }
}

}  // namespace muxlink::zoo
