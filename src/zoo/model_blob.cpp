#include "zoo/model_blob.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace muxlink::zoo {

namespace {

using gnn::TensorEntry;
using gnn::TensorKind;
using common::Json;

[[noreturn]] void fail(const std::string& what) { throw ZooError("zoo blob: " + what); }

// meta.model fields after feature_dim and conv_channels, in the order the
// encoder writes them (blob bytes depend on it).
constexpr std::pair<const char*, int gnn::DgcnnConfig::*> kIntFields[] = {
    {"conv1d_channels1", &gnn::DgcnnConfig::conv1d_channels1},
    {"conv1d_channels2", &gnn::DgcnnConfig::conv1d_channels2},
    {"conv1d_kernel2", &gnn::DgcnnConfig::conv1d_kernel2},
    {"dense_units", &gnn::DgcnnConfig::dense_units},
    {"sortpool_k", &gnn::DgcnnConfig::sortpool_k}};
constexpr std::pair<const char*, double gnn::DgcnnConfig::*> kDoubleFields[] = {
    {"dropout", &gnn::DgcnnConfig::dropout}, {"learning_rate", &gnn::DgcnnConfig::learning_rate}};

// Rebuilds the DgcnnConfig the blob was trained with from meta.model, and
// checks that the parameter tensors in the table are exactly the shapes that
// topology has — before anything is allocated, so a bad meta region can
// neither abort the model constructor nor size an allocation.
std::pair<int, gnn::DgcnnConfig> config_of(const gnn::Container& c) {
  const Json& m = gnn::meta_field(c.meta, "model", Json::Type::kObject);
  gnn::DgcnnConfig cfg;
  cfg.conv_channels.clear();
  for (const Json& ch : gnn::meta_field(m, "conv_channels", Json::Type::kArray).items()) {
    // Widths below 1 fail parameter_shapes(); this only keeps the cast exact.
    if (!ch.is_int() || ch.as_int() < 0 || ch.as_int() > std::numeric_limits<int>::max()) {
      fail("malformed conv_channels in meta");
    }
    cfg.conv_channels.push_back(static_cast<int>(ch.as_int()));
  }
  for (const auto& [key, field] : kIntFields) cfg.*field = gnn::meta_int(m, key);
  for (const auto& [key, field] : kDoubleFields) {
    cfg.*field = gnn::meta_field(m, key, Json::Type::kDouble).as_double();
  }
  cfg.seed = static_cast<std::uint64_t>(gnn::meta_field(m, "seed", Json::Type::kInt).as_int());
  const int feature_dim = gnn::meta_int(m, "feature_dim");

  std::vector<std::pair<int, int>> shapes;
  try {
    shapes = gnn::Dgcnn::parameter_shapes(feature_dim, cfg);
  } catch (const std::invalid_argument& e) {
    fail(std::string("meta declares an impossible topology: ") + e.what());
  }
  std::vector<std::pair<int, int>> stored;  // table geometry is bounded well below INT_MAX
  for (const TensorEntry& e : c.table) {
    if (e.kind == TensorKind::kParam) stored.emplace_back(e.rows, e.cols);
  }
  if (stored != shapes) fail("parameter tensors do not match the declared topology");
  return {feature_dim, cfg};
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
    if (e.kind == TensorKind::kParam) params_end = std::max(params_end, e.offset + e.bytes);
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  const auto page_len = static_cast<std::uint64_t>(page);
  const std::uint64_t start = (addr + params_end + page_len - 1) / page_len * page_len - addr;
  if (start < size) ::madvise(const_cast<char*>(base) + start, size - start, MADV_DONTNEED);
}

}  // namespace

std::string encode_model_blob(const gnn::Dgcnn& model, common::Json meta, bool with_optimizer) {
  // Collect the tensors in table order: params, then (optionally) the Adam
  // first and second moments, each group in parameter-index order.
  // The tensors are read in place: copying them would add a model's worth
  // of memory to every zoo insert, the cold attack's peak.
  std::vector<std::pair<TensorKind, const gnn::Matrix*>> tensors;
  for (const gnn::Matrix& p : model.parameters()) tensors.emplace_back(TensorKind::kParam, &p);
  if (with_optimizer) {
    for (const gnn::Matrix& m : model.adam_first_moments()) {
      tensors.emplace_back(TensorKind::kAdamM, &m);
    }
    for (const gnn::Matrix& v : model.adam_second_moments()) {
      tensors.emplace_back(TensorKind::kAdamV, &v);
    }
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
  for (const auto& [key, field] : kIntFields) m[key] = cfg.*field;
  for (const auto& [key, field] : kDoubleFields) m[key] = cfg.*field;
  m["seed"] = cfg.seed;
  if (with_optimizer) meta["adam_t"] = static_cast<long long>(model.adam_steps());
  return gnn::encode_container(tensors, meta);
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

LoadedModel load_model_blob(const std::filesystem::path& path, const LoadOptions& opts) {
  // Get the bytes: prefer a shared mapping, fall back to a buffered slurp.
  std::shared_ptr<void> mapping;
  std::string buffer;
  const char* base = nullptr;
  std::size_t size = 0;
  if (!opts.force_copy) {
    const Mapping m = map_file(path);
    if (m.addr != nullptr) {
      mapping = std::shared_ptr<void>(m.addr, [len = m.len](void* p) { ::munmap(p, len); });
      base = static_cast<const char*>(m.addr);
      size = m.len;
    }
  }
  if (base == nullptr) {
    buffer = gnn::read_container_file(path);
    base = buffer.data();
    size = buffer.size();
  }

  const gnn::Container c = gnn::decode_container(base, size);
  auto [feature_dim, cfg] = config_of(c);

  // Zero-copy is only sound when the on-disk geometry IS this build's
  // in-memory geometry: same lanes/alignment, each ld what padded_cols gives,
  // every tensor offset aligned. Otherwise copy logical elements through the
  // stored ld — correctness never depends on the writer's SIMD build.
  bool mappable = mapping != nullptr && c.simd_lanes == gnn::kSimdLanes &&
                  c.simd_align == gnn::kSimdAlign;
  for (const TensorEntry& e : c.table) {
    if (e.ld != static_cast<std::uint32_t>(gnn::Matrix::padded_cols(static_cast<int>(e.cols))) ||
        e.offset % gnn::kSimdAlign != 0 ||
        (reinterpret_cast<std::uintptr_t>(base) + e.offset) % gnn::kSimdAlign != 0) {
      mappable = false;
    }
  }

  // Weights point INTO the mapping when they can; predict() only ever reads
  // them. Adam moments are owned copies (training writes them in place),
  // made only for warm starts.
  std::vector<gnn::Matrix> params;
  for (const TensorEntry& e : c.table) {
    if (e.kind == TensorKind::kBest) fail("a checkpoint is not a model blob");
    if (e.kind != TensorKind::kParam) continue;
    params.push_back(mappable ? gnn::Matrix::borrow(static_cast<int>(e.rows),
                                                    static_cast<int>(e.cols),
                                                    reinterpret_cast<const double*>(base + e.offset))
                              : c.copy(e));
  }

  LoadedModel out{gnn::Dgcnn(feature_dim, cfg), c.meta, false, 0, nullptr};
  try {
    out.model.load_parameters(params);
    if (opts.with_optimizer) {
      gnn::Dgcnn::OptimizerState opt{c.copy_all(TensorKind::kAdamM),
                                     c.copy_all(TensorKind::kAdamV), 0};
      if (opt.m.empty()) {
        fail("blob carries no optimizer state (re-train or score without --warm-start)");
      }
      opt.t = static_cast<long>(gnn::meta_field(c.meta, "adam_t", Json::Type::kInt).as_int());
      out.model.set_optimizer_state(opt);
    }
  } catch (const std::invalid_argument& e) {
    fail(std::string("tensors do not match the declared topology: ") + e.what());
  }
  if (opts.score_only) {
    out.model.drop_training_state();
    if (mappable) release_tail(base, size, c.table);
  }
  if (mappable) {
    out.mapped = true;
    out.bytes_mapped = size;
    out.mapping = std::move(mapping);
  }
  return out;
}

}  // namespace muxlink::zoo
