// Fault-tolerance suite (DESIGN.md §8): CRC32 known answers, atomic file
// writes, the deterministic fault injector, the checkpoint format's
// corruption taxonomy, divergence rollback under injected NaN, in-process
// throw-interrupt resume, and the kill-and-resume end-to-end drill through
// the CLI (SIGKILL at several epochs and thread counts; the resumed model
// must be BYTE-identical to an uninterrupted run's).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/json.h"
#include "gnn/checkpoint.h"
#include "gnn/dgcnn.h"
#include "gnn/trainer.h"
#include "support/graph_sample.h"

namespace muxlink {
namespace {

namespace fs = std::filesystem;
using common::fault::Action;
using common::fault::FaultInjected;

class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::fault::disarm_all();
    char tmpl[] = "/tmp/muxlink_faults_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    common::fault::disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- crc32 --------------------------------------------------------------------

TEST(Crc32, KnownAnswers) {
  // IEEE 802.3 check value and a couple of anchors against bit rot.
  EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(common::crc32(""), 0u);
  EXPECT_EQ(common::crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, SeedChainsIncrementalUpdates) {
  const std::uint32_t whole = common::crc32("hello world");
  const std::uint32_t part = common::crc32(" world", common::crc32("hello"));
  EXPECT_EQ(part, whole);
}

// --- atomic_write_file --------------------------------------------------------

TEST_F(FaultsTest, AtomicWriteCreatesAndOverwrites) {
  const fs::path p = dir_ / "file.txt";
  common::atomic_write_file(p, "first");
  EXPECT_EQ(read_file(p), "first");
  common::atomic_write_file(p, "second, longer payload");
  EXPECT_EQ(read_file(p), "second, longer payload");
}

TEST_F(FaultsTest, AtomicWriteFaultBeforeRenameLeavesOldContent) {
  const fs::path p = dir_ / "file.txt";
  common::atomic_write_file(p, "durable");
  common::fault::arm("io.atomic_rename", 1, Action::kThrow);
  EXPECT_THROW(common::atomic_write_file(p, "torn"), FaultInjected);
  // The crash window between fsync and rename must never tear the target.
  EXPECT_EQ(read_file(p), "durable");
}

// --- fault injector -----------------------------------------------------------

TEST_F(FaultsTest, FiresOnNthExecutionOnly) {
  common::fault::arm("unit.site", 3, Action::kThrow);
  EXPECT_FALSE(common::fault::fire("unit.site"));
  EXPECT_FALSE(common::fault::fire("unit.site"));
  EXPECT_THROW(common::fault::fire("unit.site"), FaultInjected);
  // One-shot: the fourth execution no longer fires.
  EXPECT_FALSE(common::fault::fire("unit.site"));
  EXPECT_EQ(common::fault::hits("unit.site"), 4u);
}

TEST_F(FaultsTest, UnarmedSitesNeverFireOrCount) {
  EXPECT_FALSE(common::fault::fire("unit.other"));
  EXPECT_EQ(common::fault::hits("unit.other"), 0u);
}

TEST_F(FaultsTest, PoisonOverwritesWithNan) {
  common::fault::arm("unit.nan", 1, Action::kNan);
  double v = 1.5;
  common::fault::poison("unit.nan", v);
  EXPECT_TRUE(std::isnan(v));
  v = 2.5;
  common::fault::poison("unit.nan", v);  // already fired
  EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST_F(FaultsTest, ConfigureFromStringParsesSpecLists) {
  common::fault::configure_from_string("a.site:2:throw,b.site:1:nan");
  EXPECT_FALSE(common::fault::fire("a.site"));
  EXPECT_THROW(common::fault::fire("a.site"), FaultInjected);
  EXPECT_TRUE(common::fault::fire("b.site"));
}

TEST_F(FaultsTest, ConfigureFromStringRejectsMalformedSpecs) {
  EXPECT_THROW(common::fault::configure_from_string("nocolon"), std::invalid_argument);
  EXPECT_THROW(common::fault::configure_from_string("site:zero"), std::invalid_argument);
  EXPECT_THROW(common::fault::configure_from_string("site:1:explode"), std::invalid_argument);
  EXPECT_THROW(common::fault::configure_from_string("site:0"), std::invalid_argument);
}

// --- checkpoint format --------------------------------------------------------

gnn::TrainerCheckpoint sample_checkpoint() {
  gnn::TrainerCheckpoint ckpt;
  ckpt.seed = 42;
  ckpt.total_epochs = 10;
  ckpt.epoch = 4;
  ckpt.learning_rate = 5e-4;
  ckpt.rollbacks = 1;
  ckpt.best_epoch = 3;
  ckpt.best_val_accuracy = 0.875;
  ckpt.best_train_loss = 0.31;
  ckpt.adam_t = 128;
  std::mt19937_64 rng(9);
  std::ostringstream rs;
  rs << rng;
  ckpt.rng_state = rs.str();
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  // Logical fill only: checkpoint IO stores rows*cols doubles, and the SIMD
  // pad lanes must stay zero on both sides of the round trip.
  const auto randomize = [&](gnn::Matrix& m) {
    for (int r = 0; r < m.rows; ++r) {
      for (int c = 0; c < m.cols; ++c) m.at(r, c) = unit(rng);
    }
  };
  for (int t = 0; t < 3; ++t) {
    gnn::Matrix m(2 + t, 3);
    randomize(m);
    ckpt.params.push_back(m);
    ckpt.best_params.push_back(m);
    randomize(m);
    ckpt.adam_m.push_back(m);
    randomize(m);
    ckpt.adam_v.push_back(m);
  }
  return ckpt;
}

TEST_F(FaultsTest, CheckpointRoundTripsBitExactly) {
  const gnn::TrainerCheckpoint ckpt = sample_checkpoint();
  const fs::path p = dir_ / "state.ckpt";
  gnn::save_checkpoint_file(ckpt, p);
  const gnn::TrainerCheckpoint back = gnn::load_checkpoint_file(p);
  EXPECT_EQ(back.seed, ckpt.seed);
  EXPECT_EQ(back.total_epochs, ckpt.total_epochs);
  EXPECT_EQ(back.epoch, ckpt.epoch);
  EXPECT_EQ(back.learning_rate, ckpt.learning_rate);
  EXPECT_EQ(back.rollbacks, ckpt.rollbacks);
  EXPECT_EQ(back.best_epoch, ckpt.best_epoch);
  EXPECT_EQ(back.best_val_accuracy, ckpt.best_val_accuracy);
  EXPECT_EQ(back.best_train_loss, ckpt.best_train_loss);
  EXPECT_EQ(back.adam_t, ckpt.adam_t);
  EXPECT_EQ(back.rng_state, ckpt.rng_state);
  ASSERT_EQ(back.params.size(), ckpt.params.size());
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    EXPECT_EQ(back.params[i].data, ckpt.params[i].data);
    EXPECT_EQ(back.best_params[i].data, ckpt.best_params[i].data);
    EXPECT_EQ(back.adam_m[i].data, ckpt.adam_m[i].data);
    EXPECT_EQ(back.adam_v[i].data, ckpt.adam_v[i].data);
  }
}

TEST_F(FaultsTest, CheckpointRejectsEveryCorruptionClass) {
  const std::string bytes = gnn::encode_checkpoint(sample_checkpoint());

  // Flip one byte in the middle of the payload: CRC mismatch.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  EXPECT_THROW(gnn::decode_checkpoint(flipped), gnn::CheckpointError);

  // Truncate at several depths (header, mid-tensor, missing CRC trailer).
  for (const std::size_t keep : {std::size_t{4}, bytes.size() / 3, bytes.size() - 2}) {
    EXPECT_THROW(gnn::decode_checkpoint(bytes.substr(0, keep)), gnn::CheckpointError)
        << "kept " << keep << " of " << bytes.size();
  }

  // Trailing bytes after the CRC trailer.
  EXPECT_THROW(gnn::decode_checkpoint(bytes + "x"), gnn::CheckpointError);

  // Wrong magic.
  std::string badmagic = bytes;
  badmagic[0] = 'Z';
  EXPECT_THROW(gnn::decode_checkpoint(badmagic), gnn::CheckpointError);

  EXPECT_THROW(gnn::decode_checkpoint(""), gnn::CheckpointError);
}

TEST_F(FaultsTest, CheckpointLoadReportsMissingFile) {
  EXPECT_THROW(gnn::load_checkpoint_file(dir_ / "absent.ckpt"), gnn::CheckpointError);
}

// --- trainer guardrails + resume (in-process) ---------------------------------

gnn::DgcnnConfig tiny_config() {
  gnn::DgcnnConfig cfg;
  cfg.conv_channels = {4, 4, 1};
  cfg.conv1d_channels1 = 3;
  cfg.conv1d_channels2 = 4;
  cfg.conv1d_kernel2 = 2;
  cfg.dense_units = 8;
  cfg.dropout = 0.0;
  cfg.sortpool_k = 6;
  cfg.seed = 7;
  return cfg;
}

// Distinguishable two-class dataset (dense graphs vs chains), same shape as
// the trainer tests in test_gnn.cpp.
std::vector<gnn::GraphSample> synthetic_dataset() {
  std::vector<gnn::GraphSample> data;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 24; ++i) {
    const int label = i % 2;
    gnn::GraphSample g;
    const int n = 8;
    g.label = label;
    std::vector<std::vector<int>> nbr(n);
    if (label == 1) {
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          if ((u + v + i) % 2 == 0) {
            nbr[u].push_back(v);
            nbr[v].push_back(u);
          }
        }
      }
    } else {
      for (int u = 1; u < n; ++u) {
        nbr[u].push_back(u - 1);
        nbr[u - 1].push_back(u);
      }
    }
    gnn::set_adjacency(g, nbr);
    std::vector<std::vector<int>> feat(n);
    for (int u = 0; u < n; ++u) feat[u] = {static_cast<int>(rng() % 12)};
    gnn::set_features(g, feat);
    data.push_back(std::move(g));
  }
  return data;
}

gnn::TrainOptions fast_train_options() {
  gnn::TrainOptions topts;
  topts.epochs = 8;
  topts.batch_size = 8;
  topts.seed = 2;
  return topts;
}

TEST_F(FaultsTest, DivergenceRollsBackAndDecaysLearningRate) {
  const auto data = synthetic_dataset();
  gnn::Dgcnn model(12, tiny_config());
  gnn::TrainOptions topts = fast_train_options();
  // Poison the loss of the 3rd epoch: the guardrail must roll back to the
  // best checkpoint, decay the LR, and finish the run with finite numbers.
  common::fault::arm("train.loss", 3, Action::kNan);
  const gnn::TrainReport report = gnn::train_link_predictor(model, data, topts);
  EXPECT_EQ(report.rollbacks, 1);
  EXPECT_TRUE(std::isfinite(report.final_train_loss));
  EXPECT_GE(report.best_epoch, 1);
  EXPECT_NEAR(model.config().learning_rate, tiny_config().learning_rate * 0.5, 1e-12);
}

TEST_F(FaultsTest, RepeatedDivergenceStopsEarlyKeepingBest) {
  const auto data = synthetic_dataset();
  gnn::Dgcnn model(12, tiny_config());
  gnn::TrainOptions topts = fast_train_options();
  topts.max_rollbacks = 1;
  // Every epoch from the 2nd on diverges; after max_rollbacks the trainer
  // must stop early instead of thrashing.
  common::fault::arm("train.loss", 2, Action::kNan);
  gnn::TrainReport report = gnn::train_link_predictor(model, data, topts);
  EXPECT_EQ(report.rollbacks, 1);
  common::fault::disarm_all();
  common::fault::arm("train.loss", 1, Action::kNan);
  gnn::Dgcnn model2(12, tiny_config());
  report = gnn::train_link_predictor(model2, data, topts);
  EXPECT_GE(report.rollbacks, 1);
  for (const auto& m : model2.save_parameters()) {
    for (double x : m.data) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST_F(FaultsTest, GradientClippingIsANoopUntilItBinds) {
  const auto data = synthetic_dataset();
  const auto params_with_clip = [&](double clip) {
    gnn::Dgcnn model(12, tiny_config());
    gnn::TrainOptions topts = fast_train_options();
    topts.clip_grad = clip;
    gnn::train_link_predictor(model, data, topts);
    std::vector<double> flat;
    for (const auto& m : model.save_parameters()) {
      flat.insert(flat.end(), m.data.begin(), m.data.end());
    }
    return flat;
  };
  const auto unclipped = params_with_clip(0.0);
  // A never-binding threshold must not perturb training at all...
  EXPECT_EQ(params_with_clip(1e9), unclipped);
  // ...while a tight one rescales real batches (and stays finite).
  const auto clipped = params_with_clip(1e-4);
  EXPECT_NE(clipped, unclipped);
  for (double x : clipped) EXPECT_TRUE(std::isfinite(x));
}

TEST_F(FaultsTest, ThrowInterruptedTrainingResumesBitIdentically) {
  const auto data = synthetic_dataset();

  // Uninterrupted reference run (checkpointing on, to prove it is
  // observational).
  gnn::TrainOptions topts = fast_train_options();
  topts.checkpoint_path = (dir_ / "ref.ckpt").string();
  gnn::Dgcnn ref(12, tiny_config());
  gnn::train_link_predictor(ref, data, topts);

  // Interrupted run: the fault throws after epoch 3's checkpoint lands.
  topts.checkpoint_path = (dir_ / "run.ckpt").string();
  gnn::Dgcnn victim(12, tiny_config());
  common::fault::arm("train.epoch", 3, Action::kThrow);
  EXPECT_THROW(gnn::train_link_predictor(victim, data, topts), FaultInjected);
  common::fault::disarm_all();

  // Resume with a FRESH model object, as a restarted process would.
  topts.resume = true;
  gnn::Dgcnn resumed(12, tiny_config());
  const gnn::TrainReport report = gnn::train_link_predictor(resumed, data, topts);
  EXPECT_EQ(report.resumed_from_epoch, 3);

  const auto a = ref.save_parameters();
  const auto b = resumed.save_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].data, b[i].data) << "tensor " << i;
  }
}

TEST_F(FaultsTest, ResumeRefusesMismatchedRunBinding) {
  const auto data = synthetic_dataset();
  gnn::TrainOptions topts = fast_train_options();
  topts.checkpoint_path = (dir_ / "bind.ckpt").string();
  gnn::Dgcnn model(12, tiny_config());
  gnn::train_link_predictor(model, data, topts);

  topts.resume = true;
  {
    gnn::TrainOptions other = topts;
    other.seed = topts.seed + 1;  // different shuffle stream
    gnn::Dgcnn m(12, tiny_config());
    EXPECT_THROW(gnn::train_link_predictor(m, data, other), gnn::CheckpointError);
  }
  {
    gnn::TrainOptions other = topts;
    other.epochs = topts.epochs + 5;  // different epoch budget
    gnn::Dgcnn m(12, tiny_config());
    EXPECT_THROW(gnn::train_link_predictor(m, data, other), gnn::CheckpointError);
  }
}

// --- kill-and-resume end-to-end through the CLI -------------------------------

int run_cli(const std::string& args, const std::string& env_prefix = "") {
  const std::string cmd =
      env_prefix + std::string(MUXLINK_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

TEST_F(FaultsTest, CliKillAndResumeIsBitIdenticalAcrossEpochsAndThreads) {
  const std::string d = dir_.string();
  ASSERT_EQ(run_cli("gen c432 --out " + d + "/c.bench"), 0);
  ASSERT_EQ(run_cli("lock " + d + "/c.bench --scheme dmux --key-bits 8 --seed 5 --out " + d +
                    "/l.bench --key-out " + d + "/k.txt"),
            0);
  const std::string attack =
      "attack " + d + "/l.bench --epochs 6 --links 120 --seed 7 ";

  // Uninterrupted reference (1 thread).
  ASSERT_EQ(run_cli(attack + "--threads 1 --checkpoint-dir " + d + "/ck_base --save-model " + d +
                    "/base.model --key-out " + d + "/base.key"),
            0);
  const std::string base_model = read_file(d + "/base.model");
  ASSERT_FALSE(base_model.empty());

  // SIGKILL at three different epochs, then resume: the final model file
  // must be BYTE-identical to the uninterrupted run's.
  for (const int kill_epoch : {1, 3, 5}) {
    SCOPED_TRACE("kill epoch " + std::to_string(kill_epoch));
    const std::string ck = d + "/ck_k" + std::to_string(kill_epoch);
    EXPECT_EQ(run_cli(attack + "--threads 1 --checkpoint-dir " + ck,
                      "MUXLINK_FAULTS=train.epoch:" + std::to_string(kill_epoch) + " "),
              128 + SIGKILL);
    EXPECT_TRUE(fs::exists(ck + "/model0.ckpt"));
    ASSERT_EQ(run_cli(attack + "--threads 1 --checkpoint-dir " + ck + " --resume --save-model " +
                      d + "/resumed.model --key-out " + d + "/resumed.key"),
              0);
    EXPECT_EQ(read_file(d + "/resumed.model"), base_model);
    EXPECT_EQ(read_file(d + "/resumed.key"), read_file(d + "/base.key"));
  }

  // Same drill at 4 threads: the deterministic trainer makes the resumed
  // 4-thread run byte-identical to the 1-thread uninterrupted one too.
  EXPECT_EQ(run_cli(attack + "--threads 4 --checkpoint-dir " + d + "/ck_t4",
                    "MUXLINK_FAULTS=train.epoch:3 "),
            128 + SIGKILL);
  ASSERT_EQ(run_cli(attack + "--threads 4 --checkpoint-dir " + d +
                    "/ck_t4 --resume --save-model " + d + "/t4.model"),
            0);
  EXPECT_EQ(read_file(d + "/t4.model"), base_model);
}

TEST_F(FaultsTest, CliRejectsCorruptCheckpointsWithExitCode5) {
  const std::string d = dir_.string();
  ASSERT_EQ(run_cli("gen c17 --out " + d + "/c.bench"), 0);
  ASSERT_EQ(run_cli("lock " + d + "/c.bench --scheme dmux --key-bits 2 --seed 3 --out " + d +
                    "/l.bench --allow-partial"),
            0);
  const std::string attack =
      "attack " + d + "/l.bench --epochs 2 --links 40 --seed 7 --threads 1 ";
  ASSERT_EQ(run_cli(attack + "--checkpoint-dir " + d + "/ck"), 0);
  const fs::path ckpt = fs::path(d) / "ck" / "model0.ckpt";
  ASSERT_TRUE(fs::exists(ckpt));

  // Corrupt one payload byte: resume must fail with the checkpoint exit code.
  std::string bytes = read_file(ckpt);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_file(ckpt, bytes);
  EXPECT_EQ(run_cli(attack + "--checkpoint-dir " + d + "/ck --resume"), 5);

  // Truncate it: same taxonomy.
  write_file(ckpt, bytes.substr(0, bytes.size() / 3));
  EXPECT_EQ(run_cli(attack + "--checkpoint-dir " + d + "/ck --resume"), 5);

  // --resume without --checkpoint-dir is CLI misuse (exit 1).
  EXPECT_EQ(run_cli(attack + "--resume"), 1);
}

// Re-seals a hand-edited MXZOO1 file: payload_crc (the u32 at offset 72)
// covers [96, end).
void restamp_crc(std::string& bytes) {
  const std::uint32_t crc = common::crc32(std::string_view(bytes).substr(96));
  std::memcpy(bytes.data() + 72, &crc, sizeof crc);
}

TEST_F(FaultsTest, CliRejectsCorruptModelFilesWithExitCode4) {
  const std::string d = dir_.string();
  ASSERT_EQ(run_cli("gen c17 --out " + d + "/c.bench"), 0);
  ASSERT_EQ(run_cli("lock " + d + "/c.bench --scheme dmux --key-bits 2 --seed 3 --out " + d +
                    "/l.bench --allow-partial"),
            0);
  const std::string attack = "attack " + d + "/l.bench --epochs 2 --links 40 --seed 7 --threads 1 " +
                             "--zoo-dir " + d + "/zoo ";
  ASSERT_EQ(run_cli(attack + "--save-model " + d + "/m.mzb"), 0);
  const std::string good = read_file(d + "/m.mzb");

  // The saved model is a loadable warm-start ref...
  EXPECT_EQ(run_cli(attack + "--warm-start " + d + "/m.mzb --warm-epochs 1"), 0);

  // ...and a corrupt one is a model-format error, not a crash or misuse.
  std::string flipped = good;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  write_file(d + "/flipped.mzb", flipped);
  EXPECT_EQ(run_cli(attack + "--warm-start " + d + "/flipped.mzb --warm-epochs 1"), 4);

  // A CRC-valid blob whose meta declares sortpool_k 1: no model can have
  // that topology.
  std::string topo = good;
  const std::string needle = "\"sortpool_k\":";
  const auto at = topo.find(needle);
  ASSERT_NE(at, std::string::npos);
  const auto begin = at + needle.size();
  const auto end = topo.find_first_of(",}", begin);
  topo.replace(begin, end - begin, "1" + std::string(end - begin - 1, ' '));
  restamp_crc(topo);
  write_file(d + "/topology.mzb", topo);
  EXPECT_EQ(run_cli(attack + "--warm-start " + d + "/topology.mzb --warm-epochs 1"), 4);

  // `zoo info` on a truncated registry entry.
  fs::path entry;
  for (const auto& f : fs::directory_iterator(d + "/zoo")) {
    if (f.path().extension() == ".mzb") entry = f.path();
  }
  ASSERT_FALSE(entry.empty());
  const std::string blob = read_file(entry);
  write_file(entry, blob.substr(0, blob.size() / 2));
  EXPECT_EQ(run_cli("zoo info " + entry.stem().string() + " --zoo-dir " + d + "/zoo"), 4);
}

// --- one attack runner behind every CLI report -------------------------------

// Plain `attack`/`untangle` and their --deterministic variants run through
// the same job runner, so they score the same key the same way; the plain
// report only adds the run's observational figures.
TEST_F(FaultsTest, CliReportIsTheDeterministicManifestPlusObservations) {
  const std::string d = dir_.string();
  ASSERT_EQ(run_cli("gen c432 --out " + d + "/c.bench"), 0);
  ASSERT_EQ(run_cli("lock " + d + "/c.bench --scheme dmux --key-bits 8 --seed 3 --out " + d +
                    "/l.bench --key-out " + d + "/k.txt"),
            0);
  for (const std::string attack : {"attack", "untangle"}) {
    SCOPED_TRACE(attack);
    const std::string cmd = attack + " " + d + "/l.bench --epochs 2 --links 120 --seed 1 " +
                            "--scheme dmux --truth-key " + d + "/k.txt --orig " + d +
                            "/c.bench --patterns 256 --threads 2 --report " + d + "/";
    ASSERT_EQ(run_cli(cmd + "plain.json"), 0);
    ASSERT_EQ(run_cli(cmd + "det.json --deterministic"), 0);
    const common::Json plain = common::Json::parse(read_file(d + "/plain.json"));
    const common::Json det = common::Json::parse(read_file(d + "/det.json"));

    for (const char* key : {"results", "tool", "circuit", "scheme", "seed", "key_bits"}) {
      ASSERT_TRUE(det.contains(key)) << key;
      EXPECT_EQ(plain.at(key), det.at(key)) << key;
    }
    EXPECT_EQ(plain.at("extra").at("deciphered_key"), det.at("extra").at("deciphered_key"));
    EXPECT_TRUE(det.at("results").contains("kpa_percent"));
    EXPECT_TRUE(det.at("results").contains("hd_percent"));
    EXPECT_EQ(det.at("results").contains("routing_queries"), attack == "untangle");

    // Observational fields live in the plain report only.
    for (const char* stage : {"sample", "train", "score", "total"}) {
      EXPECT_TRUE(plain.at("stages").contains(stage)) << stage;
    }
    EXPECT_TRUE(det.at("stages").members().empty());
    EXPECT_TRUE(plain.contains("observability"));
    EXPECT_FALSE(det.contains("observability"));
    EXPECT_EQ(plain.at("threads").as_int(), 2);
    EXPECT_EQ(det.at("threads").as_int(), 1);
    EXPECT_TRUE(plain.at("extra").contains("sortpool_k"));
    EXPECT_FALSE(det.at("extra").contains("sortpool_k"));
  }
}

}  // namespace
}  // namespace muxlink
