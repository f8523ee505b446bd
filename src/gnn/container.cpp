#include "gnn/container.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <type_traits>

#include "common/crc32.h"

namespace muxlink::gnn {

namespace {

constexpr char kMagic[8] = {'M', 'X', 'Z', 'O', 'O', '1', '\0', '\n'};
constexpr std::size_t kHeaderLen = 96;  // magic + fixed fields + zero pad
constexpr std::uint32_t kHeaderVersion = 1;
// The only tensor layout (padded SIMD rows). Any other value is rejected
// rather than guessed at: mis-reading `ld` is the hazard the field exists for.
constexpr std::uint32_t kLayoutPaddedSimd = 1;
constexpr std::uint32_t kFlagOptimizer = 1u << 0;
constexpr std::size_t kTableEntryLen = 4 * 4 + 2 * 8;  // kind/rows/cols/ld + offset/bytes
// A corrupt-but-plausible header must not drive unbounded allocation: a
// DGCNN has ~10 tensors per kind and well under 10^7 scalars.
constexpr std::uint32_t kMaxTensors = 4096;
constexpr std::uint64_t kMaxTensorElems = 1ull << 28;
constexpr std::uint64_t kMaxMetaLen = 1ull << 20;
constexpr std::size_t kCrcChunk = 1ull << 20;  // CRC 1 MiB at a time

[[noreturn]] void fail(const std::string& what) { throw ModelFormatError("MXZOO1: " + what); }

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Bounds-checked forward-only reader.
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

struct Header {
  std::uint32_t simd_lanes = 0;
  std::uint32_t simd_align = 0;
  std::uint32_t tensor_count = 0;
  std::uint64_t meta_offset = 0;
  std::uint64_t meta_len = 0;
  std::uint64_t table_offset = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t file_size = 0;
  std::uint32_t payload_crc = 0;
};

// Parses the fixed header from `head` (`head_len` readable bytes) and
// bounds every section against `file_size`, the real size of the file —
// which the meta-only probe stats rather than reads.
Header parse_header(const char* head, std::size_t head_len, std::uint64_t file_size) {
  if (head_len < kHeaderLen) fail("file shorter than the fixed header");
  if (std::memcmp(head, kMagic, sizeof kMagic) != 0) fail("bad magic (not an MXZOO1 file)");
  Cursor c{head + sizeof kMagic, kHeaderLen - sizeof kMagic};
  const auto header_version = c.get<std::uint32_t>("header version");
  if (header_version != kHeaderVersion) {
    fail("unsupported header version " + std::to_string(header_version));
  }
  const auto layout_version = c.get<std::uint32_t>("layout version");
  if (layout_version != kLayoutPaddedSimd) {
    fail("unsupported tensor layout " + std::to_string(layout_version) +
         " (this build reads layout " + std::to_string(kLayoutPaddedSimd) + ")");
  }
  Header h;
  h.simd_lanes = c.get<std::uint32_t>("simd lanes");
  h.simd_align = c.get<std::uint32_t>("simd align");
  h.tensor_count = c.get<std::uint32_t>("tensor count");
  c.get<std::uint32_t>("flags");  // informational: the table says which kinds are present
  h.meta_offset = c.get<std::uint64_t>("meta offset");
  h.meta_len = c.get<std::uint64_t>("meta length");
  h.table_offset = c.get<std::uint64_t>("table offset");
  h.data_offset = c.get<std::uint64_t>("data offset");
  h.file_size = c.get<std::uint64_t>("file size");
  h.payload_crc = c.get<std::uint32_t>("payload crc");

  if (h.simd_lanes == 0 || h.simd_align == 0 || h.simd_align % sizeof(double) != 0) {
    fail("malformed simd geometry");
  }
  if (h.tensor_count == 0 || h.tensor_count > kMaxTensors) fail("implausible tensor count");
  if (h.meta_len > kMaxMetaLen) fail("implausible meta length");
  if (h.file_size != file_size) {
    fail("header file size " + std::to_string(h.file_size) + " != actual " +
         std::to_string(file_size) + " (truncated or grown)");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.tensor_count) * kTableEntryLen;
  if (h.meta_offset != kHeaderLen || h.meta_offset + h.meta_len > file_size ||
      h.table_offset != h.meta_offset + h.meta_len || h.table_offset + table_bytes > file_size ||
      h.data_offset < h.table_offset + table_bytes || h.data_offset > file_size) {
    fail("malformed section offsets");
  }
  return h;
}

std::vector<TensorEntry> parse_table(const char* base, const Header& h) {
  std::vector<TensorEntry> table;
  table.reserve(h.tensor_count);
  Cursor c{base + h.table_offset, static_cast<std::size_t>(h.data_offset - h.table_offset)};
  for (std::uint32_t i = 0; i < h.tensor_count; ++i) {
    const auto kind = c.get<std::uint32_t>("tensor kind");
    if (kind > static_cast<std::uint32_t>(TensorKind::kBest)) {
      fail("unknown tensor kind " + std::to_string(kind));
    }
    TensorEntry e;
    e.kind = static_cast<TensorKind>(kind);
    e.rows = c.get<std::uint32_t>("tensor rows");
    e.cols = c.get<std::uint32_t>("tensor cols");
    e.ld = c.get<std::uint32_t>("tensor ld");
    e.offset = c.get<std::uint64_t>("tensor offset");
    e.bytes = c.get<std::uint64_t>("tensor bytes");
    if (e.rows == 0 || e.cols == 0 || e.ld < e.cols || e.ld > kMaxTensorElems ||
        e.rows > kMaxTensorElems || static_cast<std::uint64_t>(e.rows) * e.ld > kMaxTensorElems) {
      fail("implausible tensor geometry " + std::to_string(e.rows) + "x" +
           std::to_string(e.cols) + " ld " + std::to_string(e.ld));
    }
    if (e.bytes != static_cast<std::uint64_t>(e.rows) * e.ld * sizeof(double)) {
      fail("tensor byte count disagrees with its geometry");
    }
    if (e.offset < h.data_offset || e.offset > h.file_size || e.bytes > h.file_size - e.offset) {
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
  if (crc.value() != h.payload_crc) fail("crc32 mismatch (corrupt file)");
}

common::Json parse_meta(std::string_view text) {
  try {
    return common::Json::parse(text);
  } catch (const common::JsonError& e) {
    fail(std::string("malformed meta JSON: ") + e.what());
  }
}

}  // namespace

std::string encode_container(const std::vector<std::pair<TensorKind, const Matrix*>>& tensors,
                             const common::Json& meta) {
  if (tensors.empty() || tensors.size() > kMaxTensors) {
    throw ModelFormatError("encode_container: implausible tensor count");
  }
  const std::string meta_json = meta.dump();
  std::uint32_t flags = 0;
  for (const auto& [kind, t] : tensors) {
    if (kind == TensorKind::kAdamM || kind == TensorKind::kAdamV) flags = kFlagOptimizer;
  }

  // Lay the file out: header | meta | table | aligned tensor data. Tensor
  // byte counts are multiples of kSimdAlign (ld is a multiple of kSimdLanes
  // doubles), so aligning the first offset aligns them all.
  const std::uint64_t meta_offset = kHeaderLen;
  const std::uint64_t table_offset = meta_offset + meta_json.size();
  const std::uint64_t data_offset =
      (table_offset + tensors.size() * kTableEntryLen + kSimdAlign - 1) / kSimdAlign * kSimdAlign;
  // The file is assembled in place; the CRC over [meta_offset, file_size)
  // is patched into the header last, so no second copy of the tensors is
  // ever held.
  std::uint64_t offset = data_offset;
  std::uint64_t file_size = data_offset;
  for (const auto& [kind, t] : tensors) {
    file_size += static_cast<std::uint64_t>(t->rows) * t->ld * sizeof(double);
  }
  std::string out;
  out.reserve(static_cast<std::size_t>(file_size));
  out.append(kMagic, sizeof kMagic);
  put(out, kHeaderVersion);
  put(out, kLayoutPaddedSimd);
  put(out, static_cast<std::uint32_t>(kSimdLanes));
  put(out, static_cast<std::uint32_t>(kSimdAlign));
  put(out, static_cast<std::uint32_t>(tensors.size()));
  put(out, flags);
  put(out, meta_offset);
  put(out, static_cast<std::uint64_t>(meta_json.size()));
  put(out, table_offset);
  put(out, data_offset);
  put(out, file_size);
  const std::size_t crc_at = out.size();
  put(out, std::uint32_t{0});
  out.append(kHeaderLen - out.size(), '\0');
  out += meta_json;
  for (const auto& [kind, t] : tensors) {
    const std::uint64_t bytes = static_cast<std::uint64_t>(t->rows) * t->ld * sizeof(double);
    put(out, static_cast<std::uint32_t>(kind));
    put(out, static_cast<std::uint32_t>(t->rows));
    put(out, static_cast<std::uint32_t>(t->cols));
    put(out, static_cast<std::uint32_t>(t->ld));
    put(out, offset);
    put(out, bytes);
    offset += bytes;
  }
  out.resize(static_cast<std::size_t>(data_offset), '\0');
  for (const auto& [kind, t] : tensors) {
    const double* src = t->borrowed() ? t->view : t->data.data();
    out.append(reinterpret_cast<const char*>(src),
               static_cast<std::size_t>(t->rows) * t->ld * sizeof(double));
  }
  const std::uint32_t crc =
      common::crc32(std::string_view(out).substr(static_cast<std::size_t>(meta_offset)));
  std::memcpy(out.data() + crc_at, &crc, sizeof crc);
  return out;
}

Matrix Container::copy(const TensorEntry& e) const {
  const auto rows = static_cast<int>(e.rows);
  const auto cols = static_cast<int>(e.cols);
  Matrix t(rows, cols);  // pads re-established as zero
  for (int r = 0; r < rows; ++r) {
    std::memcpy(t.row(r), base + e.offset + static_cast<std::uint64_t>(r) * e.ld * sizeof(double),
                static_cast<std::size_t>(cols) * sizeof(double));
  }
  return t;
}

std::vector<Matrix> Container::copy_all(TensorKind kind) const {
  std::vector<Matrix> out;
  for (const TensorEntry& e : table) {
    if (e.kind == kind) out.push_back(copy(e));
  }
  return out;
}

Container decode_container(const char* base, std::size_t size) {
  const Header h = parse_header(base, size, size);
  verify_crc(base, h);
  return {base, h.simd_lanes, h.simd_align,
          parse_meta(std::string_view(base + h.meta_offset, static_cast<std::size_t>(h.meta_len))),
          parse_table(base, h)};
}

std::string read_container_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open '" + path.string() + "'");
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof()) fail("read failed on '" + path.string() + "'");
  return bytes;
}

common::Json read_container_meta(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open '" + path.string() + "'");
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot stat '" + path.string() + "'");
  char head[kHeaderLen];
  if (!is.read(head, static_cast<std::streamsize>(kHeaderLen))) {
    fail("file shorter than the fixed header");
  }
  const Header h = parse_header(head, kHeaderLen, size);
  std::string meta_bytes(static_cast<std::size_t>(h.meta_len), '\0');
  if (!is.read(meta_bytes.data(), static_cast<std::streamsize>(h.meta_len))) {
    fail("truncated meta region");
  }
  return parse_meta(meta_bytes);
}

const common::Json& meta_field(const common::Json& obj, std::string_view key,
                               common::Json::Type type) {
  const common::Json* v = obj.find(key);
  if (v == nullptr) fail("meta lacks '" + std::string(key) + "'");
  if (v->type() != type && !(type == common::Json::Type::kDouble && v->is_int())) {
    fail("meta field '" + std::string(key) + "' is null or mistyped");
  }
  return *v;
}

int meta_int(const common::Json& obj, std::string_view key) {
  const std::int64_t v = meta_field(obj, key, common::Json::Type::kInt).as_int();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    fail("meta field '" + std::string(key) + "' out of range: " + std::to_string(v));
  }
  return static_cast<int>(v);
}

}  // namespace muxlink::gnn
