// Serving-layer suite (DESIGN.md §11): streaming CRC, MXZOO1 blob round
// trips (mmap and streaming-copy readers must agree bit for bit), registry
// key schema + concurrent inserts + LRU gc, the served-handle cache (verify
// once, never stale), the per-link score cache, and the
// end-to-end zoo determinism contract (a zoo-served attack is bit-identical
// to the training run that populated the entry). The e2e cases train small
// models, so the suite is registered as a single heavy ctest entry.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "circuitgen/generator.h"
#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/json.h"
#include "common/metrics.h"
#include "gnn/checkpoint.h"
#include "gnn/dgcnn.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"
#include "zoo/score_cache.h"

namespace muxlink {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers

// Unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("muxlink-test-zoo-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spew(const fs::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Bit-exact parameter comparison (== would conflate 0.0 and -0.0).
void expect_params_bit_equal(const std::vector<gnn::Matrix>& a,
                             const std::vector<gnn::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows, b[i].rows);
    ASSERT_EQ(a[i].cols, b[i].cols);
    for (int r = 0; r < a[i].rows; ++r) {
      for (int c = 0; c < a[i].cols; ++c) {
        EXPECT_TRUE(bit_equal(a[i].at(r, c), b[i].at(r, c)))
            << "tensor " << i << " [" << r << "," << c << "]";
      }
    }
  }
}

// A small model with non-trivial weights and Adam moments.
gnn::Dgcnn small_model(std::uint64_t seed = 7) {
  gnn::DgcnnConfig cfg;
  cfg.conv_channels = {8, 8, 1};
  cfg.conv1d_channels1 = 4;
  cfg.conv1d_channels2 = 8;
  cfg.dense_units = 16;
  cfg.sortpool_k = 10;
  cfg.seed = seed;
  gnn::Dgcnn model(6, cfg);
  return model;
}

gnn::GraphSample ring_sample(int nodes = 12, int feature_dim = 6, std::uint64_t seed = 3) {
  gnn::GraphSample s;
  std::vector<std::vector<int>> adj(nodes);
  for (int i = 0; i < nodes; ++i) {
    adj[i] = {(i + 1) % nodes, (i + nodes - 1) % nodes};
  }
  s.set_adjacency(adj);
  s.x = gnn::Matrix(nodes, feature_dim);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int r = 0; r < nodes; ++r) {
    for (int c = 0; c < feature_dim; ++c) s.x.at(r, c) = u(rng);
  }
  s.label = 1;
  return s;
}

// One training step so the Adam moments are non-zero. Dropout comes from an
// explicit seed (the trainer's slot entry), so the step depends only on
// (parameters, moments, sample) — the internal RNG state, which the blob
// does not carry, stays out of the trajectory.
void take_one_step(gnn::Dgcnn& model, std::uint64_t dropout_seed = 99) {
  const auto s = ring_sample();
  const gnn::GraphSample* one[] = {&s};
  const std::uint64_t seeds[] = {dropout_seed};
  auto slot = model.make_slot_gradients();
  model.accumulate_gradients(one, slot, seeds);
  model.merge_gradients({&slot, 1});
  model.adam_step(1);
}

// Serving counters accumulated since the last reset(); 0 when never bumped.
std::int64_t counter(const char* name) {
  const auto counters = common::MetricsRegistry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// (inode, mtime) of a file: what an atomic rewrite or an in-place write moves.
std::pair<ino_t, std::int64_t> inode_and_mtime(const fs::path& p) {
  struct stat st{};
  EXPECT_EQ(::stat(p.c_str(), &st), 0) << p;
  return {st.st_ino, static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec};
}

// Flips one payload byte without replacing the inode or changing the size,
// then moves the mtime one second past where it was (a coarse filesystem
// clock could otherwise leave it unchanged).
void corrupt_in_place(const fs::path& p) {
  const auto before = fs::last_write_time(p);
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-5, std::ios::end);
    const char c = static_cast<char>(f.get() ^ 0x10);
    f.seekp(-5, std::ios::end);
    f.put(c);
    ASSERT_TRUE(f.good());
  }
  fs::last_write_time(p, before + std::chrono::seconds(1));
}

// Rewrites the header's simd_lanes (the u32 at offset 16, outside the
// payload CRC) in place to a width no build of this code uses, then moves
// the mtime like corrupt_in_place. The blob still decodes, but its geometry
// is no longer this build's in-memory one, so load_model_blob must take the
// streaming-copy reader: the production route to the fallback.
void make_lanes_foreign(const fs::path& p) {
  const auto before = fs::last_write_time(p);
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t lanes = 8;
    f.seekp(16);
    f.write(reinterpret_cast<const char*>(&lanes), sizeof lanes);
    ASSERT_TRUE(f.good());
  }
  fs::last_write_time(p, before + std::chrono::seconds(1));
}

// ---------------------------------------------------------------------------
// Satellite 1: streaming CRC matches the one-shot API.

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(common::crc32(""), 0u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  std::string data(4099, '\0');
  std::mt19937_64 rng(11);
  for (char& c : data) c = static_cast<char>(rng());
  const std::uint32_t whole = common::crc32(data);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{256},
                            std::size_t{4096}, data.size()}) {
    common::Crc32 crc;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      crc.update(std::string_view(data).substr(off, chunk));
    }
    EXPECT_EQ(crc.value(), whole) << "chunk=" << chunk;
  }
}

// The bytewise reference loop the slice-by-8 implementation replaced: the
// oracle every table-driven result must equal.
std::uint32_t crc32_bytewise(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesTheBytewiseOracle) {
  std::mt19937_64 rng(2024);
  std::string pool(70000, '\0');
  for (char& c : pool) c = static_cast<char>(rng());
  for (int trial = 0; trial < 200; ++trial) {
    // Odd lengths and unaligned starts exercise the 8-byte loop's head and
    // tail handling; every length 0..64 is covered by the first trials.
    const std::size_t len = trial < 65 ? static_cast<std::size_t>(trial) : rng() % 65000;
    const std::size_t start = rng() % (pool.size() - len + 1);
    const std::string_view data = std::string_view(pool).substr(start, len);
    const std::uint32_t seed = trial % 3 == 0 ? 0u : static_cast<std::uint32_t>(rng());
    const std::uint32_t want = crc32_bytewise(data, seed);
    ASSERT_EQ(common::crc32(data, seed), want) << "len=" << len << " start=" << start;

    // Arbitrary update() chunking must give the same value.
    common::Crc32 crc(seed);
    for (std::size_t off = 0; off < data.size();) {
      const std::size_t n = std::min<std::size_t>(data.size() - off, rng() % 23);
      crc.update(data.substr(off, n));
      off += n;
    }
    ASSERT_EQ(crc.value(), want) << "chunked, len=" << len << " start=" << start;
  }
  EXPECT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);
}

TEST(Crc32, SeedChainingAndReset) {
  const std::string a = "hello, ";
  const std::string b = "zoo";
  EXPECT_EQ(common::crc32(b, common::crc32(a)), common::crc32(a + b));

  common::Crc32 crc;
  crc.update(a);
  crc.update(b.data(), b.size());
  EXPECT_EQ(crc.value(), common::crc32(a + b));
  crc.reset();
  EXPECT_EQ(crc.value(), 0u);
  crc.update("123456789");
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// MXZOO1 blobs: round trip, mmap vs streaming copy, rejection paths.

class BlobTest : public ::testing::Test {
 protected:
  BlobTest() : dir_("blob") {}
  fs::path write_blob(const gnn::Dgcnn& model, bool with_optimizer,
                      const std::string& name = "m.mzb") {
    common::Json meta = common::Json::object();
    meta["test"] = std::string("yes");
    const std::string bytes = zoo::encode_model_blob(model, meta, with_optimizer);
    const fs::path p = dir_.path / name;
    spew(p, bytes);
    return p;
  }
  TempDir dir_;
};

TEST_F(BlobTest, MmapAndCopyReadersAgreeBitForBit) {
  auto model = small_model();
  take_one_step(model);
  const fs::path p = write_blob(model, /*with_optimizer=*/true);

  zoo::LoadOptions mapped_opts;
  auto mapped = zoo::load_model_blob(p, mapped_opts);
  EXPECT_TRUE(mapped.mapped);
  EXPECT_GT(mapped.bytes_mapped, 0u);

  zoo::LoadOptions copy_opts;
  copy_opts.force_copy = true;
  auto copied = zoo::load_model_blob(p, copy_opts);
  EXPECT_FALSE(copied.mapped);
  EXPECT_EQ(copied.bytes_mapped, 0u);

  expect_params_bit_equal(model.save_parameters(), mapped.model.save_parameters());
  expect_params_bit_equal(model.save_parameters(), copied.model.save_parameters());

  // Inference through the mapped views matches the owned copies exactly.
  const auto s = ring_sample();
  const double p_orig = model.predict(s, false);
  EXPECT_TRUE(bit_equal(p_orig, mapped.model.predict(s, false)));
  EXPECT_TRUE(bit_equal(p_orig, copied.model.predict(s, false)));

  EXPECT_EQ(mapped.meta["test"].as_string(), "yes");
}

TEST_F(BlobTest, ScoreOnlyLoadScoresIdenticallyButCannotTrain) {
  auto model = small_model();
  take_one_step(model);
  const fs::path p = write_blob(model, /*with_optimizer=*/true);

  zoo::LoadOptions opts;
  opts.score_only = true;
  auto served = zoo::load_model_blob(p, opts);
  EXPECT_TRUE(served.mapped);
  EXPECT_TRUE(served.model.gradients().empty());
  EXPECT_TRUE(served.model.optimizer_state().m.empty());

  const auto s = ring_sample();
  EXPECT_TRUE(bit_equal(model.predict(s, false), served.model.score(s)));
  EXPECT_THROW(served.model.adam_step(1), std::logic_error);
  EXPECT_THROW(served.model.accumulate_gradients(s), std::logic_error);
}

TEST_F(BlobTest, MaterializeMakesMappedModelTrainable) {
  auto model = small_model();
  take_one_step(model);
  const fs::path p = write_blob(model, /*with_optimizer=*/true);

  zoo::LoadOptions opts;
  opts.with_optimizer = true;
  auto loaded = zoo::load_model_blob(p, opts);
  // Deep-copy the snapshot: save_parameters() of a mapped model returns
  // views, and materialize() releases the mapping they point into.
  auto before = loaded.model.save_parameters();
  for (auto& m : before) m.materialize();
  loaded.materialize();
  EXPECT_FALSE(loaded.mapped);
  expect_params_bit_equal(before, loaded.model.save_parameters());

  // Optimizer state survived: another identical step matches the original.
  take_one_step(model);
  take_one_step(loaded.model);
  expect_params_bit_equal(model.save_parameters(), loaded.model.save_parameters());
}

TEST_F(BlobTest, OptimizerRequestedButAbsentThrows) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/false);
  EXPECT_NO_THROW(zoo::load_model_blob(p));
  zoo::LoadOptions opts;
  opts.with_optimizer = true;
  EXPECT_THROW(zoo::load_model_blob(p, opts), zoo::ZooError);
}

TEST_F(BlobTest, CorruptTruncatedAndForeignFilesThrow) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/true);
  const std::string good = slurp(p);

  // Flipped tensor byte: CRC catches it.
  std::string corrupt = good;
  corrupt[corrupt.size() - 9] ^= 0x40;
  spew(dir_.path / "corrupt.mzb", corrupt);
  EXPECT_THROW(zoo::load_model_blob(dir_.path / "corrupt.mzb"), zoo::ZooError);

  // Truncation at several depths.
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{40},
                           good.size() / 2, good.size() - 1}) {
    spew(dir_.path / "trunc.mzb", good.substr(0, keep));
    EXPECT_THROW(zoo::load_model_blob(dir_.path / "trunc.mzb"), zoo::ZooError)
        << "keep=" << keep;
  }

  // Wrong magic.
  std::string foreign = good;
  foreign[0] = 'Y';
  spew(dir_.path / "foreign.mzb", foreign);
  EXPECT_THROW(zoo::load_model_blob(dir_.path / "foreign.mzb"), zoo::ZooError);

  EXPECT_THROW(zoo::load_model_blob(dir_.path / "missing.mzb"), zoo::ZooError);
}

TEST_F(BlobTest, UnknownLayoutVersionIsRejectedNotMisread) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/false);
  std::string bytes = slurp(p);
  // layout_version is the u32 at offset 12 (magic 8 + header_version 4); it
  // is outside the payload CRC on purpose — the header check must fire.
  const std::uint32_t bogus = 7;
  std::memcpy(bytes.data() + 12, &bogus, sizeof bogus);
  spew(dir_.path / "layout.mzb", bytes);
  EXPECT_THROW(zoo::load_model_blob(dir_.path / "layout.mzb"), zoo::ZooError);
}

TEST_F(BlobTest, ForeignSimdLanesTakeTheStreamingCopy) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/false);
  ASSERT_TRUE(zoo::load_model_blob(p).mapped);
  make_lanes_foreign(p);
  const auto loaded = zoo::load_model_blob(p);
  EXPECT_FALSE(loaded.mapped);
  EXPECT_EQ(loaded.bytes_mapped, 0u);
  expect_params_bit_equal(model.save_parameters(), loaded.model.save_parameters());
}

TEST_F(BlobTest, ReadBlobMetaIsACheapProbe) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/true);
  auto meta = zoo::read_blob_meta(p);
  EXPECT_EQ(meta["format"].as_string(), "muxlink-zoo-blob/v1");
  EXPECT_EQ(meta["test"].as_string(), "yes");
  EXPECT_THROW(zoo::read_blob_meta(dir_.path / "missing.mzb"), zoo::ZooError);
}

// Re-seals a hand-edited container: payload_crc (the u32 at offset 72)
// covers [96, end), so an edit past the header reaches the parsers instead
// of stopping at the CRC check.
void restamp_crc(std::string& bytes) {
  const std::uint32_t crc = common::crc32(std::string_view(bytes).substr(96));
  std::memcpy(bytes.data() + 72, &crc, sizeof crc);
}

// Replaces `"<key>":<old>` in the meta region with `"<key>":<value>`,
// space-padded to the old width so no offset moves, and re-seals the CRC.
std::string edit_meta(std::string bytes, const std::string& key, const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const auto at = bytes.find(needle);
  const auto begin = at + needle.size();
  const auto end = at == std::string::npos ? at : bytes.find_first_of(",}", begin);
  if (end == std::string::npos || value.size() > end - begin) {
    ADD_FAILURE() << "cannot edit meta field " << key;
    return bytes;
  }
  bytes.replace(begin, end - begin, value + std::string(end - begin - value.size(), ' '));
  restamp_crc(bytes);
  return bytes;
}

TEST_F(BlobTest, TopologyTheTensorsCannotHoldIsAFormatError) {
  const auto model = small_model();
  const std::string good = slurp(write_blob(model, /*with_optimizer=*/true));
  // sortpool_k 1 would abort the Dgcnn constructor; a negative width would
  // size an allocation. Both are format errors, whichever reader runs.
  for (const auto& [key, value] : {std::pair<std::string, std::string>{"sortpool_k", "1"},
                                   {"dense_units", "-1"}}) {
    SCOPED_TRACE(key + ":" + value);
    const fs::path p = dir_.path / "topology.mzb";
    spew(p, edit_meta(good, key, value));
    EXPECT_THROW(zoo::load_model_blob(p), zoo::ZooError);
    zoo::LoadOptions copy_opts;
    copy_opts.force_copy = true;
    copy_opts.with_optimizer = true;
    EXPECT_THROW(zoo::load_model_blob(p, copy_opts), zoo::ZooError);
  }
}

TEST_F(BlobTest, ReadBlobMetaNeverReadsTheTensors) {
  const auto model = small_model();
  const fs::path p = write_blob(model, /*with_optimizer=*/true);
  // A sparse 1 TiB file with a valid header and meta: the probe must stat
  // the size, not allocate it, and report the mismatch as a format error.
  fs::resize_file(p, std::uintmax_t{1} << 40);
  EXPECT_THROW(zoo::read_blob_meta(p), zoo::ZooError);
}

// ---------------------------------------------------------------------------
// Deterministic mutation test of the one container decoder: a small model
// blob and a checkpoint built from the same model, mutated in the header,
// the tensor table and the meta bytes, with the CRC re-stamped (mostly) so
// the mutations reach the parsers. Every decode must succeed or throw the
// format error (CheckpointError for checkpoints) — never another exception,
// a crash, or a sanitizer report.

TEST(ContainerFuzz, MutatedModelsAndCheckpointsDecodeOrThrowFormatError) {
  TempDir dir("fuzz");
  auto model = small_model();
  take_one_step(model);
  common::Json meta = common::Json::object();
  meta["circuit"] = "fuzz";
  const std::string blob = zoo::encode_model_blob(model, meta, /*with_optimizer=*/true);

  gnn::TrainerCheckpoint ckpt;
  ckpt.seed = 3;
  ckpt.total_epochs = 4;
  ckpt.epoch = 2;
  ckpt.learning_rate = 1e-3;
  ckpt.best_epoch = 1;
  ckpt.best_val_accuracy = 0.75;
  ckpt.best_train_loss = 0.5;
  ckpt.rng_state = "5489";
  ckpt.params = model.save_parameters();
  ckpt.best_params = ckpt.params;
  auto opt = model.optimizer_state();
  ckpt.adam_t = opt.t;
  ckpt.adam_m = std::move(opt.m);
  ckpt.adam_v = std::move(opt.v);
  const std::string ckpt_bytes = gnn::encode_checkpoint(ckpt);
  ASSERT_NO_THROW(gnn::decode_checkpoint(ckpt_bytes));

  // Header fields after the magic (offsets of the u32/u64 fields), and the
  // table geometry, read back from the pristine files.
  const std::size_t header_fields[] = {8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64};
  const auto u64_at = [](const std::string& b, std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + off, sizeof v);
    return v;
  };
  const char dict[] = "0123456789-+.eE,:{}[]\"nul ";
  const std::uint64_t interesting[] = {0, 1, 2, 3, 4, 7, 8, 31, 32, 96, 0x7fffffff,
                                       0xffffffff, 1ull << 28, 1ull << 40, ~0ull};

  std::mt19937_64 rng(20240521);
  const fs::path p = dir.path / "m.mzb";
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool is_ckpt = iter % 2 == 1;
    std::string bytes = is_ckpt ? ckpt_bytes : blob;
    const std::uint64_t meta_len = u64_at(bytes, 40);
    const std::uint64_t table_off = u64_at(bytes, 48);
    const std::uint64_t tensors = u64_at(bytes, 24) & 0xffffffffu;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < edits; ++k) {
      switch (rng() % 4) {
        case 0: {  // header field
          const std::size_t off = header_fields[rng() % std::size(header_fields)];
          const std::size_t width = off >= 32 && off < 72 ? 8 : 4;
          const std::uint64_t v = rng() % 2 ? interesting[rng() % std::size(interesting)]
                                            : u64_at(bytes, off) + (rng() % 2 ? 1 : -1);
          std::memcpy(bytes.data() + off, &v, width);
          break;
        }
        case 1: {  // tensor table entry field
          const std::size_t entry = table_off + (rng() % tensors) * 32;
          const std::size_t field = rng() % 6;
          const std::size_t off = entry + (field < 4 ? field * 4 : 16 + (field - 4) * 8);
          const std::size_t width = field < 4 ? 4 : 8;
          const std::uint64_t v = rng() % 2 ? interesting[rng() % std::size(interesting)]
                                            : u64_at(bytes, off) + (rng() % 2 ? 32 : -1);
          std::memcpy(bytes.data() + off, &v, width);
          break;
        }
        default: {  // meta byte (twice as likely: the JSON is the richest input)
          const std::size_t off = 96 + rng() % meta_len;
          bytes[off] = dict[rng() % (sizeof dict - 1)];
          break;
        }
      }
    }
    if (rng() % 8 != 0) restamp_crc(bytes);

    if (is_ckpt) {
      try {
        gnn::decode_checkpoint(bytes);
        ++decoded;
      } catch (const gnn::CheckpointError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "iteration " << iter << ": checkpoint decode threw " << e.what();
      }
      continue;
    }
    spew(p, bytes);
    zoo::LoadOptions opts;
    opts.force_copy = rng() % 2 == 0;
    opts.with_optimizer = rng() % 2 == 0;
    opts.score_only = !opts.with_optimizer && rng() % 2 == 0;
    try {
      zoo::read_blob_meta(p);
      zoo::load_model_blob(p, opts);
      ++decoded;
    } catch (const zoo::ZooError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": blob load threw " << e.what();
    }
  }
  // The mix must exercise both outcomes, or the mutations are not reaching
  // past the first check.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// Registry: key schema, LRU bookkeeping, concurrent inserts, gc.

TEST(Registry, KeySchemaIsStable) {
  zoo::ZooKey key;
  key.circuit_hash = 0xdeadbeefcafe0123ull;
  key.scheme = "dmux";
  key.hops = 3;
  key.feature_dim = 17;
  key.seed = 42;
  key.config_hash = 0x0123456789abcdefull;
  key.member = 2;
  EXPECT_EQ(key.str(),
            "cdeadbeefcafe0123-dmux-h3-f17-s42-t0123456789abcdef-m2");
  EXPECT_EQ(zoo::fnv1a64(""), zoo::kFnvOffset);
  EXPECT_EQ(zoo::hex64(0), "0000000000000000");
}

TEST(Registry, InsertFindPinAndList) {
  TempDir dir("registry");
  const zoo::Registry reg(dir.path / "zoo");
  EXPECT_FALSE(reg.contains("a"));
  EXPECT_FALSE(reg.find("a").has_value());

  reg.insert("a", "payload-a");
  reg.insert("b", "payload-b-longer");
  EXPECT_TRUE(reg.contains("a"));
  const auto found = reg.find("a");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(slurp(*found), "payload-a");
  EXPECT_EQ(reg.total_bytes(), 9u + 16u);

  EXPECT_FALSE(reg.pinned("a"));
  reg.pin("a");
  EXPECT_TRUE(reg.pinned("a"));
  reg.unpin("a");
  EXPECT_FALSE(reg.pinned("a"));

  // find() bumps the entry to most-recently-used, so "b" lists first.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(reg.entry_path("a"), now - std::chrono::hours(2));
  fs::last_write_time(reg.entry_path("b"), now - std::chrono::hours(1));
  (void)reg.find("b");
  const auto entries = reg.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "a");
  EXPECT_EQ(entries[1].key, "b");
}

TEST(Registry, ConcurrentSameKeyInsertsNeverExposeATorApartialBlob) {
  TempDir dir("race");
  const zoo::Registry reg(dir.path / "zoo");
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;

  // Each writer's payload is distinctive and self-describing; a reader must
  // only ever observe one writer's payload in full.
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t) {
    payloads.push_back(std::string(1024, static_cast<char>('A' + t)));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) reg.insert("hot", payloads[t]);
    });
  }
  for (auto& w : workers) w.join();

  const auto found = reg.find("hot");
  ASSERT_TRUE(found.has_value());
  const std::string got = slurp(*found);
  bool intact = false;
  for (const auto& p : payloads) intact |= (got == p);
  EXPECT_TRUE(intact) << "destination is not any single writer's payload";
  // The unique-temp-name contract: no stray temp should survive the joins
  // (every writer renamed its own staging file).
  for (const auto& e : fs::directory_iterator(dir.path / "zoo")) {
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << "leftover temp " << e.path();
  }
}

TEST(Registry, GcEvictsStrictlyLruAndNeverPinned) {
  TempDir dir("gc");
  const zoo::Registry reg(dir.path / "zoo");
  const std::string kb(1024, 'x');
  reg.insert("old", kb);
  reg.insert("mid", kb);
  reg.insert("new", kb);
  // Each entry owns a score cache that must leave with it.
  common::atomic_write_file(reg.score_cache_path("old"), "scores-old");
  common::atomic_write_file(reg.score_cache_path("new"), "scores-new");
  // A stray temp from a crashed writer is swept too.
  spew(dir.path / "zoo" / "dead.mzb.tmp.999.1", "partial");

  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(reg.entry_path("old"), now - std::chrono::hours(3));
  fs::last_write_time(reg.entry_path("mid"), now - std::chrono::hours(2));
  fs::last_write_time(reg.entry_path("new"), now - std::chrono::hours(1));
  reg.pin("old");

  // Budget for one entry: "old" is LRU but pinned, so "mid" then "new" are
  // the eviction candidates; evicting "mid" alone satisfies the budget
  // (pinned bytes still count toward the kept total, so the budget must
  // cover old + new).
  const auto res = reg.gc(2 * 1024 + 64);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_EQ(res.evicted[0], "mid");
  EXPECT_TRUE(reg.contains("old"));
  EXPECT_FALSE(reg.contains("mid"));
  EXPECT_TRUE(reg.contains("new"));
  EXPECT_FALSE(fs::exists(dir.path / "zoo" / "dead.mzb.tmp.999.1"));
  EXPECT_TRUE(fs::exists(reg.score_cache_path("old")));

  // Everything unpinned goes at budget 0; the pinned entry survives, score
  // cache and all.
  const auto res0 = reg.gc(0);
  ASSERT_EQ(res0.evicted.size(), 1u);
  EXPECT_EQ(res0.evicted[0], "new");
  EXPECT_FALSE(fs::exists(reg.score_cache_path("new")));
  EXPECT_TRUE(reg.contains("old"));
  EXPECT_GT(res0.bytes_kept, 0u);
}

TEST(Registry, ListAndGcOrderDeterministicUnderIdenticalMtimes) {
  TempDir dir("gc_ties");
  const zoo::Registry reg(dir.path / "zoo");
  const std::string kb(1024, 'x');
  // Insertion order is deliberately not key order.
  for (const char* k : {"delta", "alpha", "charlie", "bravo"}) reg.insert(k, kb);
  // Coarse filesystem timestamps (or a fast machine) can stamp every entry
  // with the same mtime; the LRU order must still be total.
  const auto stamp = fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const char* k : {"delta", "alpha", "charlie", "bravo"}) {
    fs::last_write_time(reg.entry_path(k), stamp);
  }

  const auto entries = reg.list();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].key, "alpha");
  EXPECT_EQ(entries[1].key, "bravo");
  EXPECT_EQ(entries[2].key, "charlie");
  EXPECT_EQ(entries[3].key, "delta");

  // Eviction under the tie follows the same total order: two entries' worth
  // of budget evicts exactly the two lexicographically-smallest keys.
  const auto res = reg.gc(2 * 1024 + 64);
  ASSERT_EQ(res.evicted.size(), 2u);
  EXPECT_EQ(res.evicted[0], "alpha");
  EXPECT_EQ(res.evicted[1], "bravo");
  EXPECT_TRUE(reg.contains("charlie"));
  EXPECT_TRUE(reg.contains("delta"));
}

TEST(Registry, FindBumpIsStrictlyMonotonicEvenAgainstFutureMtimes) {
  TempDir dir("bump");
  const zoo::Registry reg(dir.path / "zoo");
  reg.insert("a", "payload");
  reg.insert("b", "payload");
  // Stamp both entries ahead of the wall clock (clock skew, restored
  // backups). A plain mtime := now would leave "a" ordered by the key
  // tie-break instead of as most-recently-used.
  const auto future = fs::file_time_type::clock::now() + std::chrono::hours(1);
  fs::last_write_time(reg.entry_path("a"), future);
  fs::last_write_time(reg.entry_path("b"), future);

  ASSERT_TRUE(reg.find("a").has_value());
  const auto entries = reg.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "b") << "find() must leave the other entry older";
  EXPECT_EQ(entries[1].key, "a") << "found entry must become most-recently-used";
  EXPECT_GT(entries[1].last_used, entries[0].last_used);

  // Every hit bumps: repeat finds each advance the mtime again.
  auto last = fs::last_write_time(reg.entry_path("a"));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(reg.find("a").has_value());
    const auto now = fs::last_write_time(reg.entry_path("a"));
    EXPECT_GT(now, last) << "find " << i;
    last = now;
  }
}

// ---------------------------------------------------------------------------
// Served-handle cache: a blob is verified once per identity, its own LRU
// bump is not a change, and any real change is served fresh.

std::string blob_of(const gnn::Dgcnn& model) {
  return zoo::encode_model_blob(model, common::Json::object(), /*with_optimizer=*/true);
}

TEST(HandleCache, VerifiesOnceAndFollowsItsOwnBump) {
  TempDir dir("handles");
  const zoo::Registry reg(dir.path / "zoo");
  const auto model = small_model();
  reg.insert("k", blob_of(model));
  const auto stale = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(reg.entry_path("k"), stale);

  common::MetricsRegistry::instance().reset();
  const auto first = reg.serve("k");
  ASSERT_NE(first, nullptr);
  EXPECT_GT(fs::last_write_time(reg.entry_path("k")), stale) << "serve() must LRU-bump";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(reg.serve("k"), first) << "serve " << i;
  if (common::metrics_enabled()) {
    EXPECT_EQ(counter("serving.handle_loads"), 1);
    EXPECT_EQ(counter("serving.handle_hits"), 3);
  }
  EXPECT_TRUE(first->mapped);
  EXPECT_TRUE(first->model.gradients().empty());
  EXPECT_TRUE(bit_equal(first->model.score(ring_sample()),
                        small_model().predict(ring_sample(), false)));
  EXPECT_EQ(reg.serve("missing"), nullptr);
}

TEST(HandleCache, ReplacedBlobIsServedFreshNeverStale) {
  TempDir dir("handles-replace");
  const zoo::Registry reg(dir.path / "zoo");
  const auto s = ring_sample();
  const auto a = small_model(7);
  const auto b = small_model(8);
  ASSERT_FALSE(bit_equal(a.score(s), b.score(s)));

  reg.insert("k", blob_of(a));
  const auto served_a = reg.serve("k");
  ASSERT_NE(served_a, nullptr);
  EXPECT_TRUE(bit_equal(served_a->model.score(s), a.score(s)));

  // Through insert (which forgets the handle) ...
  reg.insert("k", blob_of(b));
  EXPECT_TRUE(bit_equal(reg.serve("k")->model.score(s), b.score(s)));
  // ... and behind the registry's back: a rename of a new inode over the
  // entry, which only the identity check can notice.
  common::atomic_write_file(reg.entry_path("k"), blob_of(a));
  EXPECT_TRUE(bit_equal(reg.serve("k")->model.score(s), a.score(s)));
  // The handle a running job holds stays valid after its entry was replaced.
  EXPECT_TRUE(bit_equal(served_a->model.score(s), a.score(s)));
}

TEST(HandleCache, InPlaceWriteOrForeignBumpReverifies) {
  TempDir dir("handles-inplace");
  const zoo::Registry reg(dir.path / "zoo");
  reg.insert("k", blob_of(small_model()));
  const auto first = reg.serve("k");
  ASSERT_NE(first, nullptr);

  // A bump by someone else (another process's find, here a plain mtime
  // write) is an identity change the cache cannot tell from a write: it
  // reloads, and the bytes still verify.
  common::MetricsRegistry::instance().reset();
  fs::last_write_time(reg.entry_path("k"), fs::last_write_time(reg.entry_path("k")) +
                                               std::chrono::seconds(1));
  const auto reloaded = reg.serve("k");
  ASSERT_NE(reloaded, nullptr);
  EXPECT_NE(reloaded, first);
  if (common::metrics_enabled()) {
    EXPECT_EQ(counter("serving.handle_loads"), 1);
  }

  // Same inode, same size, new mtime, bad bytes: re-verified and rejected.
  corrupt_in_place(reg.entry_path("k"));
  EXPECT_THROW(reg.serve("k"), zoo::ZooError);
  EXPECT_THROW(reg.serve("k"), zoo::ZooError) << "a rejected blob must not be cached";
}

TEST(HandleCache, ForeignLanesBlobIsServedThroughTheCopyReader) {
  TempDir dir("handles-copy");
  const zoo::Registry reg(dir.path / "zoo");
  const auto model = small_model();
  reg.insert("k", blob_of(model));
  const auto mapped = reg.serve("k");
  ASSERT_NE(mapped, nullptr);
  EXPECT_GT(mapped->bytes_mapped, 0u);

  make_lanes_foreign(reg.entry_path("k"));
  common::MetricsRegistry::instance().reset();
  const auto copied = reg.serve("k");
  ASSERT_NE(copied, nullptr);
  EXPECT_FALSE(copied->mapped);
  EXPECT_EQ(copied->bytes_mapped, 0u);
  EXPECT_TRUE(bit_equal(copied->model.score(ring_sample()), model.score(ring_sample())));
  EXPECT_EQ(reg.serve("k"), copied) << "the copied handle is cached like a mapped one";
  if (common::metrics_enabled()) {
    EXPECT_EQ(counter("serving.handle_loads"), 1);
  }
}

TEST(HandleCache, GcDropsTheHandle) {
  TempDir dir("handles-gc");
  const zoo::Registry reg(dir.path / "zoo");
  reg.insert("k", blob_of(small_model()));
  std::weak_ptr<const zoo::LoadedModel> weak = reg.serve("k");
  ASSERT_FALSE(weak.expired()) << "the cache holds the handle";
  const auto res = reg.gc(0);
  ASSERT_EQ(res.evicted.size(), 1u);
  EXPECT_TRUE(weak.expired()) << "gc must drop the evicted entry's mapping";
  EXPECT_EQ(reg.serve("k"), nullptr);
}

TEST(HandleCache, ConcurrentServesShareOneVerifiedHandle) {
  TempDir dir("handles-threads");
  const zoo::Registry reg(dir.path / "zoo");
  const auto model = small_model();
  reg.insert("k", blob_of(model));
  std::vector<gnn::GraphSample> samples;
  std::vector<double> want;
  for (std::uint64_t i = 0; i < 6; ++i) {
    samples.push_back(ring_sample(10 + static_cast<int>(i), 6, i));
    want.push_back(model.score(samples.back()));
  }

  common::MetricsRegistry::instance().reset();
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<const zoo::LoadedModel*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto h = reg.serve("k");
        if (!h) {
          ++mismatches;
          continue;
        }
        if (r == 0) seen[t] = h.get();
        for (std::size_t i = 0; i < samples.size(); ++i) {
          if (!bit_equal(h->model.score(samples[i]), want[i])) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [&](auto* p) { return p == seen[0]; }));
  if (common::metrics_enabled()) {
    EXPECT_EQ(counter("serving.handle_loads"), 1);
    EXPECT_EQ(counter("serving.handle_hits"), kThreads * kRounds - 1);
  }
}

// ---------------------------------------------------------------------------
// Per-link score cache: LRU semantics, bit-exact persistence, corrupt files.

TEST(ScoreCache, LruEvictionAndHitBumping) {
  zoo::ScoreCache cache(2);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 0.25);
  cache.put(2, 0.5);
  EXPECT_EQ(cache.get(1), 0.25);  // bumps 1 to MRU
  cache.put(3, 0.75);             // evicts 2, the LRU
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1), 0.25);
  EXPECT_EQ(cache.get(3), 0.75);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);

  // put of an existing key replaces the value in place.
  cache.put(1, 0.125);
  EXPECT_EQ(cache.get(1), 0.125);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScoreCache, CapacityZeroDisables) {
  zoo::ScoreCache cache(0);
  cache.put(1, 0.5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ScoreCache, PersistenceIsBitExactAndPreservesLruOrder) {
  TempDir dir("scc");
  const fs::path p = dir.path / "c.msc";
  zoo::ScoreCache cache(8);
  // Values chosen so any decimal round-trip would betray itself.
  const double denormal = 5e-324;
  const double third = 1.0 / 3.0;
  cache.put(10, -0.0);
  cache.put(20, denormal);
  cache.put(30, third);
  (void)cache.get(10);  // 20 becomes the LRU
  cache.save(p);

  zoo::ScoreCache reloaded(3);
  ASSERT_TRUE(reloaded.load(p));
  EXPECT_EQ(reloaded.size(), 3u);
  ASSERT_TRUE(reloaded.get(10).has_value());
  EXPECT_TRUE(bit_equal(*reloaded.get(10), -0.0));
  EXPECT_TRUE(bit_equal(*reloaded.get(20), denormal));
  EXPECT_TRUE(bit_equal(*reloaded.get(30), third));

  // LRU order survived the round trip: a reloaded cache at capacity evicts
  // the same entry the original would have (20, before the gets above bump
  // it — reload fresh to check).
  zoo::ScoreCache order(3);
  ASSERT_TRUE(order.load(p));
  order.put(40, 1.0);  // one over capacity: 20 must go
  EXPECT_FALSE(order.get(20).has_value());
  EXPECT_TRUE(order.get(10).has_value());
}

TEST(ScoreCache, CorruptOrForeignFileLoadsAsEmpty) {
  TempDir dir("scc-bad");
  zoo::ScoreCache cache(4);

  EXPECT_FALSE(cache.load(dir.path / "missing.msc"));
  EXPECT_EQ(cache.size(), 0u);

  spew(dir.path / "garbage.msc", "not a score cache at all");
  EXPECT_FALSE(cache.load(dir.path / "garbage.msc"));
  EXPECT_EQ(cache.size(), 0u);

  // A valid file with one flipped payload byte: CRC rejects it.
  zoo::ScoreCache writer(4);
  writer.put(1, 0.5);
  writer.put(2, 0.75);
  writer.save(dir.path / "good.msc");
  std::string bytes = slurp(dir.path / "good.msc");
  bytes[bytes.size() / 2] ^= 0x01;
  spew(dir.path / "flipped.msc", bytes);
  EXPECT_FALSE(cache.load(dir.path / "flipped.msc"));
  EXPECT_EQ(cache.size(), 0u);

  // Truncation.
  spew(dir.path / "trunc.msc", slurp(dir.path / "good.msc").substr(0, 13));
  EXPECT_FALSE(cache.load(dir.path / "trunc.msc"));

  // And the good file still loads (the cache recovers after bad loads).
  EXPECT_TRUE(cache.load(dir.path / "good.msc"));
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism contract: zoo-served, cache-served, copy-fallback,
// and warm-started runs against one small locked circuit.

void expect_same_attack_result(const core::MuxLinkResult& a, const core::MuxLinkResult& b,
                               const char* what) {
  ASSERT_EQ(a.key.size(), b.key.size()) << what;
  for (std::size_t i = 0; i < a.key.size(); ++i) EXPECT_EQ(a.key[i], b.key[i]) << what;
  ASSERT_EQ(a.likelihoods.size(), b.likelihoods.size()) << what;
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    EXPECT_TRUE(bit_equal(a.likelihoods[i].score_a, b.likelihoods[i].score_a))
        << what << " link " << i;
    EXPECT_TRUE(bit_equal(a.likelihoods[i].score_b, b.likelihoods[i].score_b))
        << what << " link " << i;
  }
}

TEST(ZooEndToEnd, ServedRunsAreBitIdenticalToTheTrainingRun) {
  netlist::Netlist original = [] {
    circuitgen::CircuitSpec spec;
    spec.seed = 5;
    spec.num_gates = 160;
    spec.num_inputs = 12;
    spec.num_outputs = 6;
    return circuitgen::generate(spec);
  }();
  locking::MuxLockOptions lo;
  lo.key_bits = 8;
  lo.seed = 9;
  const auto design = locking::lock_dmux(original, lo);

  TempDir dir("e2e");
  core::MuxLinkOptions opts;
  opts.epochs = 6;
  opts.learning_rate = 1e-3;
  opts.max_train_links = 200;
  opts.seed = 3;
  opts.use_zoo = true;
  opts.zoo_dir = (dir.path / "zoo").string();
  opts.scheme = "dmux";

  // Cold: trains and populates the registry.
  const auto cold = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_TRUE(cold.serving.zoo_enabled);
  EXPECT_FALSE(cold.serving.zoo_hit);
  EXPECT_FALSE(cold.serving.zoo_key.empty());

  // Warm: mmap-served, score-cache hits, bit-identical.
  const auto warm = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_TRUE(warm.serving.zoo_hit);
  EXPECT_EQ(warm.serving.zoo_key, cold.serving.zoo_key);
  EXPECT_GT(warm.serving.bytes_mapped, 0u);
  EXPECT_GT(warm.serving.cache_hits, 0u);
  expect_same_attack_result(cold, warm, "warm");

  // Fresh: score cache cleared, scores recomputed through the mapping.
  fs::remove_all(dir.path / "zoo" / "scores");
  fs::create_directories(dir.path / "zoo" / "scores");
  const auto fresh = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_TRUE(fresh.serving.zoo_hit);
  EXPECT_EQ(fresh.serving.cache_hits, 0u);
  expect_same_attack_result(cold, fresh, "fresh");

  // Copy fallback: a blob whose header names foreign SIMD lanes is served
  // through the streaming-copy reader, scores recomputed, without changing a
  // single bit.
  make_lanes_foreign(zoo::Registry(dir.path / "zoo").entry_path(cold.serving.zoo_key));
  fs::remove_all(dir.path / "zoo" / "scores");
  fs::create_directories(dir.path / "zoo" / "scores");
  const auto copied = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_TRUE(copied.serving.zoo_hit);
  EXPECT_EQ(copied.serving.bytes_mapped, 0u);
  EXPECT_EQ(copied.serving.cache_hits, 0u);
  expect_same_attack_result(cold, copied, "copied");

  // A corrupted blob falls back to training (and repairs the entry), never
  // to a wrong answer.
  {
    const zoo::Registry reg(dir.path / "zoo");
    const auto path = reg.entry_path(cold.serving.zoo_key);
    std::string bytes = slurp(path);
    bytes[bytes.size() - 5] ^= 0x10;
    spew(path, bytes);
  }
  const auto repaired = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_FALSE(repaired.serving.zoo_hit);
  expect_same_attack_result(cold, repaired, "repaired");

  // Warm start: fine-tunes from the stored entry, registers under its own
  // key (coherence: it can never serve a cold run), and is itself
  // deterministic — a second warm-started run is served and bit-identical.
  core::MuxLinkOptions wopts = opts;
  wopts.warm_start = cold.serving.zoo_key;
  wopts.warm_epochs = 2;
  const auto tuned = core::MuxLinkAttack(wopts).run(design.netlist);
  EXPECT_TRUE(tuned.serving.warm_start);
  EXPECT_FALSE(tuned.serving.zoo_hit);
  EXPECT_NE(tuned.serving.zoo_key, cold.serving.zoo_key);

  const auto tuned_again = core::MuxLinkAttack(wopts).run(design.netlist);
  EXPECT_TRUE(tuned_again.serving.zoo_hit);
  EXPECT_EQ(tuned_again.serving.zoo_key, tuned.serving.zoo_key);
  expect_same_attack_result(tuned, tuned_again, "tuned");
}

// The served path's mechanisms, end to end: a second in-process warm run
// loads no blob, a fully-hit run leaves the score-cache file alone, a run
// with a miss rewrites it, and an in-place corruption of a cached blob falls
// back to training.
TEST(ZooServing, WarmRunsReuseHandlesAndSkipIdenticalCacheWrites) {
  netlist::Netlist original = [] {
    circuitgen::CircuitSpec spec;
    spec.seed = 6;
    spec.num_gates = 140;
    spec.num_inputs = 10;
    spec.num_outputs = 5;
    return circuitgen::generate(spec);
  }();
  locking::MuxLockOptions lo;
  lo.key_bits = 6;
  lo.seed = 4;
  const auto design = locking::lock_dmux(original, lo);

  TempDir dir("serving");
  core::MuxLinkOptions opts;
  opts.epochs = 3;
  opts.learning_rate = 1e-3;
  opts.max_train_links = 150;
  opts.seed = 5;
  opts.use_zoo = true;
  opts.zoo_dir = (dir.path / "zoo").string();
  opts.scheme = "dmux";

  const auto cold = core::MuxLinkAttack(opts).run(design.netlist);
  ASSERT_FALSE(cold.serving.zoo_hit);
  const zoo::Registry reg(dir.path / "zoo");
  const fs::path msc = reg.score_cache_path(cold.serving.zoo_key);
  const auto written = inode_and_mtime(msc);

  common::MetricsRegistry::instance().reset();
  const auto warm1 = core::MuxLinkAttack(opts).run(design.netlist);
  const std::int64_t loads_after_first = counter("serving.handle_loads");
  const auto warm2 = core::MuxLinkAttack(opts).run(design.netlist);
  ASSERT_TRUE(warm1.serving.zoo_hit);
  ASSERT_TRUE(warm2.serving.zoo_hit);
  EXPECT_EQ(warm2.serving.cache_misses, 0u);
  expect_same_attack_result(cold, warm1, "warm1");
  expect_same_attack_result(cold, warm2, "warm2");
  if (common::metrics_enabled()) {
    EXPECT_EQ(loads_after_first, 1) << "the first warm run verifies the blob";
    EXPECT_EQ(counter("serving.handle_loads"), loads_after_first)
        << "a second in-process warm run must not load again";
    EXPECT_EQ(counter("serving.handle_hits"), 1);
  }
  EXPECT_EQ(inode_and_mtime(msc), written) << "fully-hit runs must not rewrite the score cache";

  // Drop the oldest cached score: the next run misses once and must persist.
  {
    zoo::ScoreCache full(opts.score_cache_capacity);
    ASSERT_TRUE(full.load(msc));
    zoo::ScoreCache fewer(full.size() - 1);
    ASSERT_TRUE(fewer.load(msc));
    common::atomic_write_file(msc, slurp(msc));  // fresh inode, same bytes
    fewer.save(msc);
  }
  const auto trimmed = inode_and_mtime(msc);
  const auto missed = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_EQ(missed.serving.cache_misses, 1u);
  expect_same_attack_result(cold, missed, "missed");
  EXPECT_NE(inode_and_mtime(msc), trimmed) << "a run with a miss must rewrite the score cache";

  // A cached blob corrupted in place (same inode and size, new mtime) is
  // re-verified, rejected, and retrained — never served from the old handle.
  corrupt_in_place(reg.entry_path(cold.serving.zoo_key));
  const auto repaired = core::MuxLinkAttack(opts).run(design.netlist);
  EXPECT_FALSE(repaired.serving.zoo_hit);
  expect_same_attack_result(cold, repaired, "repaired");
}

}  // namespace
}  // namespace muxlink
