// Resilient-serving tests: CRC-32 vectors, the deterministic fault
// harness, the checkpoint frame (round trip + rejection of truncated /
// bit-flipped / wrong-version streams, last-good fallback), predictor
// snapshot bit-exactness, divergence rollback, graceful degradation
// provenance, input quarantine, the checkpointed serving session's
// kill/resume equivalence, and the end-to-end acceptance scenario with
// every fault class armed at once.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fallback.hpp"
#include "core/predictor.hpp"
#include "core/serve/serving_session.hpp"
#include "nn/loss.hpp"
#include "trace/store.hpp"
#include "trace/swf.hpp"
#include "trace/workload.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace core = prionn::core;
namespace serve = prionn::core::serve;
namespace tr = prionn::trace;
namespace fault = prionn::util::fault;
namespace fs = std::filesystem;

namespace {

core::PredictorOptions tiny_predictor_options() {
  core::PredictorOptions o;
  o.image.rows = o.image.cols = 16;
  o.image.transform = core::Transform::kSimple;
  o.runtime_bins = 64;
  o.io_bins = 16;
  o.epochs = 2;
  o.predict_io = true;
  return o;
}

std::vector<tr::JobRecord> tiny_jobs(std::size_t n,
                                     std::uint64_t seed = 2016) {
  tr::WorkloadGenerator gen(tr::WorkloadOptions::cab(n + n / 8, seed));
  return tr::completed_jobs(gen.generate());
}

std::string predictor_bytes(const core::PrionnPredictor& p) {
  std::ostringstream os(std::ios::binary);
  p.save(os);
  return std::move(os).str();
}

/// Unique-per-test checkpoint path under the system temp dir.
class CheckpointPath {
 public:
  explicit CheckpointPath(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    cleanup();
  }
  ~CheckpointPath() { cleanup(); }
  const std::string& str() const noexcept { return path_; }

 private:
  void cleanup() {
    fs::remove(path_);
    fs::remove(core::last_good_path(path_));
    fs::remove(path_ + ".tmp");
  }
  std::string path_;
};

// ---------------------------------------------------------------- crc32 ---

TEST(Crc32, KnownVectors) {
  // The classic check value from the CRC catalogue (zlib-compatible).
  EXPECT_EQ(prionn::util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(prionn::util::crc32(""), 0x00000000u);
  EXPECT_EQ(prionn::util::crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  prionn::util::Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), prionn::util::crc32(data));
}

// -------------------------------------------------------- fault harness ---

TEST(FaultHarness, DisarmedNeverFires) {
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault::fire(fault::FaultPoint::kIngestGarbage));
}

TEST(FaultHarness, FireAtHitsTheExactOccurrence) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.point(fault::FaultPoint::kNanPoisonBatch).fire_at = {3, 5};
  fault::ScopedFaultPlan armed(plan);
  std::vector<int> fired;
  for (int i = 1; i <= 6; ++i)
    if (fault::fire(fault::FaultPoint::kNanPoisonBatch)) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{3, 5}));
}

TEST(FaultHarness, SameSeedSameSchedule) {
  const auto schedule = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.point(fault::FaultPoint::kIngestGarbage).probability = 0.2;
    fault::ScopedFaultPlan armed(plan);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(fault::fire(fault::FaultPoint::kIngestGarbage));
    return fires;
  };
  EXPECT_EQ(schedule(42), schedule(42));
  EXPECT_NE(schedule(42), schedule(43));
}

TEST(FaultHarness, MaxFiresBoundsTheDamage) {
  fault::FaultPlan plan;
  plan.seed = 1;
  plan.point(fault::FaultPoint::kIngestGarbage).probability = 1.0;
  plan.point(fault::FaultPoint::kIngestGarbage).max_fires = 2;
  fault::ScopedFaultPlan armed(plan);
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (fault::fire(fault::FaultPoint::kIngestGarbage)) ++fires;
  EXPECT_EQ(fires, 2);
}

TEST(FaultHarness, GarbleLineIsDeterministic) {
  const std::string line = "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18";
  EXPECT_EQ(fault::garble_line(line, 9), fault::garble_line(line, 9));
  EXPECT_NE(fault::garble_line(line, 9), line);
}

TEST(FaultHarness, PoisonWithNansPlantsNans) {
  std::vector<float> data(256, 1.0f);
  fault::poison_with_nans(data, 5);
  std::size_t nans = 0;
  for (const float v : data)
    if (std::isnan(v)) ++nans;
  EXPECT_GE(nans, 1u);
  EXPECT_LE(nans, 8u);
}

// ------------------------------------------------ NaN bandwidth guard ---

TEST(JobPrediction, BandwidthGuardsAgainstNonFiniteRuntime) {
  core::JobPrediction p;
  p.bytes_read = 6e9;
  p.bytes_written = 6e9;
  p.runtime_minutes = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(p.read_bandwidth(), 0.0);
  EXPECT_EQ(p.write_bandwidth(), 0.0);
  p.runtime_minutes = std::numeric_limits<double>::infinity();
  EXPECT_EQ(p.read_bandwidth(), 0.0);
  p.runtime_minutes = 0.0;
  EXPECT_EQ(p.read_bandwidth(), 0.0);
  p.runtime_minutes = 100.0;
  EXPECT_DOUBLE_EQ(p.read_bandwidth(), 1e6);
  EXPECT_DOUBLE_EQ(p.write_bandwidth(), 1e6);
}

// --------------------------------------------- predictor save/load ---

TEST(PredictorSnapshot, RoundTripsBitIdenticalPredictions) {
  const auto jobs = tiny_jobs(48);
  core::PrionnPredictor p(tiny_predictor_options());
  p.train(jobs);

  const std::string bytes = predictor_bytes(p);
  std::istringstream is(bytes, std::ios::binary);
  core::PrionnPredictor q = core::PrionnPredictor::load(is);

  // save -> load -> save is byte-stable, and predictions match bit for
  // bit (same weights, same bins, same mapper).
  EXPECT_EQ(predictor_bytes(q), bytes);
  std::vector<std::string> scripts;
  for (std::size_t i = 0; i < 8; ++i) scripts.push_back(jobs[i].script);
  const auto a = p.predict_batch(scripts);
  const auto b = q.predict_batch(scripts);
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    EXPECT_EQ(a[i].value.runtime_minutes, b[i].value.runtime_minutes);
    EXPECT_EQ(a[i].value.bytes_read, b[i].value.bytes_read);
    EXPECT_EQ(a[i].value.bytes_written, b[i].value.bytes_written);
  }
}

TEST(PredictorSnapshot, ResumedTrainingMatchesUninterrupted) {
  // The snapshot carries the whole trajectory (Adam moments, dropout RNG
  // streams, event counter): retraining after a restore must produce the
  // same weights as never having restarted.
  const auto jobs = tiny_jobs(64);
  const std::vector<tr::JobRecord> first(jobs.begin(), jobs.begin() + 32);
  const std::vector<tr::JobRecord> second(jobs.begin() + 32, jobs.end());

  core::PrionnPredictor p(tiny_predictor_options());
  p.train(first);
  const std::string snapshot = predictor_bytes(p);

  p.train(second);
  const std::string uninterrupted = predictor_bytes(p);

  std::istringstream is(snapshot, std::ios::binary);
  core::PrionnPredictor q = core::PrionnPredictor::load(is);
  q.train(second);
  EXPECT_EQ(predictor_bytes(q), uninterrupted);
}

TEST(PredictorSnapshot, PredictionLeavesSavedStateUnchanged) {
  // PredictionService serialises a model once, when it publishes it, and
  // trains the next shadow from those bytes while the live copy serves:
  // inference must not move anything save() writes (dropout RNG
  // included).
  const auto jobs = tiny_jobs(48);
  core::PredictorOptions options = tiny_predictor_options();
  options.dropout = 0.25;
  core::PrionnPredictor p(options);
  p.train(jobs);
  const std::string published = predictor_bytes(p);

  std::vector<std::string> scripts;
  for (const auto& job : jobs) scripts.push_back(job.script);
  static_cast<void>(p.predict_batch(scripts));
  static_cast<void>(
      p.predict_batch(std::span<const std::string>(scripts.data(), 1)));
  EXPECT_EQ(predictor_bytes(p), published);
}

TEST(PredictorSnapshot, RejectsDamagedStreams) {
  core::PrionnPredictor p(tiny_predictor_options());
  const std::string bytes = predictor_bytes(p);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 2),
                               std::ios::binary);
  EXPECT_THROW(core::PrionnPredictor::load(truncated), std::runtime_error);

  std::string magicless = bytes;
  magicless[0] = 'X';
  std::istringstream bad_magic(magicless, std::ios::binary);
  EXPECT_THROW(core::PrionnPredictor::load(bad_magic), std::runtime_error);
}

// ----------------------------------------------------- checkpoint frame ---

TEST(Checkpoint, FrameRoundTrips) {
  const std::string payload = "predictor bytes stand-in";
  std::ostringstream os(std::ios::binary);
  core::write_checkpoint(os, payload);
  std::istringstream is(std::move(os).str(), std::ios::binary);
  EXPECT_EQ(core::read_checkpoint(is), payload);
}

TEST(Checkpoint, RejectsTruncatedBitFlippedAndWrongVersion) {
  const std::string payload(1024, 'p');
  std::ostringstream os(std::ios::binary);
  core::write_checkpoint(os, payload);
  const std::string frame = std::move(os).str();

  for (const std::size_t keep : {std::size_t{3}, frame.size() / 2}) {
    std::istringstream is(frame.substr(0, keep), std::ios::binary);
    EXPECT_THROW(core::read_checkpoint(is), core::CheckpointError);
  }

  // Flip one payload bit: the CRC must catch it.
  std::string flipped = frame;
  flipped[frame.size() - 7] ^= 0x10;
  std::istringstream bad_crc(flipped, std::ios::binary);
  EXPECT_THROW(core::read_checkpoint(bad_crc), core::CheckpointError);

  // Bump the version field (bytes 4..8 after the magic).
  std::string versioned = frame;
  versioned[4] = 99;
  std::istringstream bad_version(versioned, std::ios::binary);
  EXPECT_THROW(core::read_checkpoint(bad_version), core::CheckpointError);

  std::string magicless = frame;
  magicless[0] ^= 0xFF;
  std::istringstream bad_magic(magicless, std::ios::binary);
  EXPECT_THROW(core::read_checkpoint(bad_magic), core::CheckpointError);
}

TEST(Checkpoint, FileRoundTripAndLastGoodFallback) {
  CheckpointPath path("prionn_test_fallback.ckpt");
  const auto jobs = tiny_jobs(48);
  core::PrionnPredictor p(tiny_predictor_options());
  p.train(jobs);

  core::OnlineCheckpointState st;
  st.next_index = 40;
  st.submissions_since_train = 0;
  core::write_checkpoint_file(path.str(), p.snapshot(), st);

  auto primary = core::resume_checkpoint(path.str());
  ASSERT_TRUE(primary.checkpoint.has_value());
  EXPECT_EQ(primary.source, core::CheckpointSource::kPrimary);
  EXPECT_EQ(primary.checkpoint->state.next_index, 40u);
  EXPECT_EQ(predictor_bytes(primary.checkpoint->predictor),
            predictor_bytes(p));

  // Second generation, then tear the primary: resume must fall back to
  // the rotated last-good file, which still holds generation one.
  st.next_index = 80;
  core::write_checkpoint_file(path.str(), p.snapshot(), st);
  fs::resize_file(path.str(), fs::file_size(path.str()) / 2);
  auto fallback = core::resume_checkpoint(path.str());
  ASSERT_TRUE(fallback.checkpoint.has_value());
  EXPECT_EQ(fallback.source, core::CheckpointSource::kLastGood);
  EXPECT_FALSE(fallback.primary_error.empty());
  EXPECT_EQ(fallback.checkpoint->state.next_index, 40u);

  fs::remove(path.str());
  fs::remove(core::last_good_path(path.str()));
  const auto cold = core::resume_checkpoint(path.str());
  EXPECT_FALSE(cold.checkpoint.has_value());
  EXPECT_EQ(cold.source, core::CheckpointSource::kNone);
}

namespace {

/// A frame as format version 1 wrote it: the cursor followed by the
/// embedding-ready byte that version 2 dropped.
std::string version1_frame(std::string_view predictor_bytes,
                           const core::OnlineCheckpointState& state) {
  std::string payload = core::encode_checkpoint(predictor_bytes, state);
  payload.push_back('\x01');
  std::ostringstream os(std::ios::binary);
  const auto put = [&os](auto v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(core::kCheckpointMagic);
  put(std::uint32_t{1});
  put(static_cast<std::uint64_t>(payload.size()));
  put(prionn::util::crc32(payload));
  os << payload;
  return std::move(os).str();
}

}  // namespace

TEST(Checkpoint, VersionOneFrameFallsBackToLastGoodOrColdStart) {
  CheckpointPath path("prionn_test_version1.ckpt");
  const core::PrionnPredictor p(tiny_predictor_options());
  core::OnlineCheckpointState st;
  st.next_index = 40;
  const std::string old_frame = version1_frame(p.snapshot(), st);

  std::istringstream is(old_frame, std::ios::binary);
  try {
    core::read_checkpoint(is);
    ADD_FAILURE() << "a version-1 frame was accepted";
  } catch (const core::CheckpointError& e) {
    EXPECT_STREQ(e.what(), "unsupported checkpoint version 1");
  }

  const auto write_old = [&](const std::string& file) {
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    os << old_frame;
  };
  // A current last-good generation (cursor 40) behind a version-1
  // primary.
  core::write_checkpoint_file(path.str(), p.snapshot(), st);
  st.next_index = 80;
  core::write_checkpoint_file(path.str(), p.snapshot(), st);
  write_old(path.str());
  const auto last_good = core::resume_checkpoint(path.str());
  ASSERT_TRUE(last_good.checkpoint.has_value());
  EXPECT_EQ(last_good.source, core::CheckpointSource::kLastGood);
  EXPECT_EQ(last_good.primary_error, "unsupported checkpoint version 1");
  EXPECT_EQ(last_good.checkpoint->state.next_index, 40u);

  // Both generations from version 1: nothing to resume from.
  write_old(core::last_good_path(path.str()));
  const auto cold = core::resume_checkpoint(path.str());
  EXPECT_FALSE(cold.checkpoint.has_value());
  EXPECT_EQ(cold.source, core::CheckpointSource::kNone);
  EXPECT_EQ(cold.primary_error, "unsupported checkpoint version 1");
}

TEST(Checkpoint, TruncateFaultTearsPrimaryNotLastGood) {
  CheckpointPath path("prionn_test_torn.ckpt");
  core::PrionnPredictor p(tiny_predictor_options());
  p.train(tiny_jobs(48));

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.point(fault::FaultPoint::kCheckpointTruncate).fire_at = {2};
  fault::ScopedFaultPlan armed(plan);

  core::OnlineCheckpointState st;
  st.next_index = 1;
  core::write_checkpoint_file(path.str(), p.snapshot(), st);  // survives
  st.next_index = 2;
  core::write_checkpoint_file(path.str(), p.snapshot(), st);  // torn

  const auto resumed = core::resume_checkpoint(path.str());
  ASSERT_TRUE(resumed.checkpoint.has_value());
  EXPECT_EQ(resumed.source, core::CheckpointSource::kLastGood);
  EXPECT_EQ(resumed.checkpoint->state.next_index, 1u);
}

// -------------------------------------------------- divergence rollback ---

TEST(DivergenceRollback, PoisonedTrainThrowsAndSnapshotRestoresBitExact) {
  const auto jobs = tiny_jobs(48);
  core::PrionnPredictor p(tiny_predictor_options());
  p.train(jobs);
  const std::string snapshot = predictor_bytes(p);

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.point(fault::FaultPoint::kNanPoisonBatch).fire_at = {1};
  {
    fault::ScopedFaultPlan armed(plan);
    EXPECT_THROW(p.train(jobs), prionn::nn::TrainingDiverged);
  }

  std::istringstream is(snapshot, std::ios::binary);
  p = core::PrionnPredictor::load(is);
  EXPECT_EQ(predictor_bytes(p), snapshot);
}

TEST(DivergenceRollback, GradientNormGuardTrips) {
  auto options = tiny_predictor_options();
  options.max_gradient_norm = 1e-12;  // everything is an explosion
  core::PrionnPredictor p(options);
  EXPECT_THROW(p.train(tiny_jobs(32)), prionn::nn::TrainingDiverged);
}

// ----------------------------------------------- graceful degradation ---

TEST(FallbackChain, ProvenanceWalksNnForestRequested) {
  const auto jobs = tiny_jobs(48);
  core::FallbackPredictor fallback;

  // No NN, no baseline: the user's requested runtime.
  auto p = fallback.predict(nullptr, jobs[0]);
  EXPECT_EQ(p.source, core::PredictionSource::kRequested);
  EXPECT_DOUBLE_EQ(p.value.runtime_minutes,
                   std::max(1.0, jobs[0].requested_minutes));

  // Baseline fitted: random forest on the Table-1 features.
  fallback.fit_baseline(jobs);
  EXPECT_TRUE(fallback.baseline_ready());
  p = fallback.predict(nullptr, jobs[0]);
  EXPECT_EQ(p.source, core::PredictionSource::kRandomForest);
  EXPECT_GE(p.value.runtime_minutes, 1.0);

  // Trained NN outranks the forest...
  core::PrionnPredictor nn(tiny_predictor_options());
  nn.train(jobs);
  p = fallback.predict(&nn, jobs[0]);
  EXPECT_EQ(p.source, core::PredictionSource::kNeuralNet);
  EXPECT_GT(p.confidence, 0.0);

  // ...unless the confidence gate rejects it.
  core::FallbackOptions strict;
  strict.min_confidence = 1.1;  // unattainable
  core::FallbackPredictor picky(strict);
  picky.fit_baseline(jobs);
  p = picky.predict(&nn, jobs[0]);
  EXPECT_EQ(p.source, core::PredictionSource::kRandomForest);
}

// -------------------------------------------------- input quarantine ---

TEST(Quarantine, SwfSkipsAndCountsMalformedRows) {
  std::stringstream swf;
  swf << "; comment\n";
  swf << "1 0 0 60 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1\n";
  swf << "2 10 0 sixty 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1\n";  // bad col 4
  swf << "3 20 0 60 4\n";                                        // short
  swf << "4 30 0 60 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1\n";
  swf << "5 40 0 nan 4 -1 -1 4 3600 -1 1 1 2 1 1 1 -1 -1\n";     // nan
  tr::SwfOptions options;
  options.max_quarantine_fraction = 0.8;
  tr::QuarantineReport report;
  const auto jobs = tr::load_swf(swf, options, &report);

  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(report.accepted(), 2u);
  EXPECT_EQ(report.quarantined(), 3u);
  ASSERT_EQ(report.lines().size(), 3u);
  EXPECT_EQ(report.lines()[0].line_number, 3u);
  EXPECT_NE(report.lines()[0].reason.find("non-numeric field 4"),
            std::string::npos);
  EXPECT_EQ(report.lines()[1].line_number, 4u);
  EXPECT_NE(report.lines()[1].reason.find("short line"), std::string::npos);
  EXPECT_NE(report.lines()[2].reason.find("non-numeric field 4"),
            std::string::npos);
}

TEST(Quarantine, SwfToleranceExceededThrows) {
  std::stringstream swf;
  swf << "garbage line\n";
  swf << "1 0 0 60 4 -1 -1 4 3600 -1 1 1 1 1 1 1 -1 -1\n";
  tr::SwfOptions options;
  options.max_quarantine_fraction = 0.05;  // 1 of 2 rows is way past 5%
  EXPECT_THROW(tr::load_swf(swf, options), std::runtime_error);
}

TEST(Quarantine, TraceStoreResyncsOnDamagedRecord) {
  auto jobs = tiny_jobs(3);
  jobs.resize(3);
  std::ostringstream os;
  tr::save_trace(os, jobs);
  std::string text = std::move(os).str();

  // Mangle the second record's runtime line into a non-numeric value.
  const auto pos = text.find("runtime_min", text.find("runtime_min") + 1);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("runtime_min").size(), "runtime_rot");

  tr::TraceLoadOptions options;
  options.max_quarantine_fraction = 0.5;
  tr::QuarantineReport report;
  std::istringstream is(text, std::ios::binary);
  const auto loaded = tr::load_trace(is, options, &report);

  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(loaded[0].job_id, jobs[0].job_id);
  EXPECT_EQ(loaded[1].job_id, jobs[2].job_id);
  EXPECT_EQ(loaded[1].script, jobs[2].script);

  // The default tolerance is strict: the same stream fails the load.
  std::istringstream strict_is(text, std::ios::binary);
  EXPECT_THROW(tr::load_trace(strict_is), std::runtime_error);
}

// ------------------------------------ checkpointed serving session ---

serve::SessionOptions tiny_session_options(const std::string& path) {
  serve::SessionOptions o;
  o.service.predictor = tiny_predictor_options();
  o.service.predictor.epochs = 1;
  o.service.predictor.predict_io = false;
  o.service.protocol.retrain_interval = 40;
  o.service.protocol.train_window = 80;
  o.service.protocol.min_initial_completions = 40;
  // Let some predictions fall to the RF.
  o.service.fallback.min_confidence = 0.35;
  o.service.fallback.forest.trees = 10;
  o.checkpoint_path = path;
  return o;
}

TEST(ResilientOnline, PoisonedRetrainRollsBackAndServingContinues) {
  CheckpointPath path("prionn_test_rollback.ckpt");
  const auto jobs = tiny_jobs(220);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.point(fault::FaultPoint::kNanPoisonBatch).fire_at = {2};
  fault::ScopedFaultPlan armed(plan);

  const auto result =
      serve::ServingSession(tiny_session_options(path.str())).replay(jobs);

  EXPECT_EQ(result.stats.rejected_retrains, 1u);
  EXPECT_FALSE(result.stats.nn_benched);
  EXPECT_GE(result.training_events, 2u);
  for (const auto& p : result.predictions) {
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(std::isfinite(p->value.runtime_minutes));
    EXPECT_GE(p->value.runtime_minutes, 1.0);
  }
}

TEST(ResilientOnline, KillAndResumeMatchesUninterruptedRun) {
  const auto jobs = tiny_jobs(220);

  CheckpointPath clean_path("prionn_test_clean.ckpt");
  const auto uninterrupted =
      serve::ServingSession(tiny_session_options(clean_path.str()))
          .replay(jobs);
  ASSERT_FALSE(uninterrupted.crashed);
  ASSERT_GE(uninterrupted.training_events, 3u);

  CheckpointPath crash_path("prionn_test_crash.ckpt");
  const auto options = tiny_session_options(crash_path.str());
  std::size_t crash_index = 0;
  {
    fault::FaultPlan plan;
    plan.seed = 23;
    plan.point(fault::FaultPoint::kCrash).fire_at = {2};
    fault::ScopedFaultPlan armed(plan);
    const auto before_crash = serve::ServingSession(options).replay(jobs);
    ASSERT_TRUE(before_crash.crashed);
    crash_index = before_crash.crash_index;
    ASSERT_GT(crash_index, 0u);
    // The prefix the dead process served matches the uninterrupted run.
    for (std::size_t i = 0; i < crash_index; ++i) {
      ASSERT_TRUE(before_crash.predictions[i].has_value());
      EXPECT_EQ(before_crash.predictions[i]->value.runtime_minutes,
                uninterrupted.predictions[i]->value.runtime_minutes);
    }
    for (std::size_t i = crash_index; i < jobs.size(); ++i)
      EXPECT_FALSE(before_crash.predictions[i].has_value());
  }

  // A fresh process resumes from the checkpoint: every surviving
  // prediction must match the uninterrupted run bit for bit.
  const auto resumed = serve::ServingSession(options).replay(jobs);
  EXPECT_EQ(resumed.resume_source, core::CheckpointSource::kPrimary);
  EXPECT_EQ(resumed.resume_index, crash_index);
  ASSERT_FALSE(resumed.crashed);
  for (std::size_t i = 0; i < crash_index; ++i)
    EXPECT_FALSE(resumed.predictions[i].has_value());
  for (std::size_t i = crash_index; i < jobs.size(); ++i) {
    ASSERT_TRUE(resumed.predictions[i].has_value()) << "job " << i;
    ASSERT_TRUE(uninterrupted.predictions[i].has_value());
    EXPECT_EQ(resumed.predictions[i]->value.runtime_minutes,
              uninterrupted.predictions[i]->value.runtime_minutes)
        << "job " << i;
    EXPECT_EQ(resumed.predictions[i]->source,
              uninterrupted.predictions[i]->source)
        << "job " << i;
  }
}

TEST(ResilientOnline, RepeatedRejectionsBenchTheNn) {
  CheckpointPath path("prionn_test_bench.ckpt");
  const auto jobs = tiny_jobs(220);

  auto options = tiny_session_options(path.str());
  options.service.predictor.max_gradient_norm = 1e-12;  // every train fails
  options.service.guards.max_consecutive_rejections = 2;
  const auto result = serve::ServingSession(options).replay(jobs);

  EXPECT_TRUE(result.stats.nn_benched);
  EXPECT_EQ(result.training_events, 0u);
  EXPECT_EQ(result.stats.rejected_retrains, 2u);
  EXPECT_EQ(result.stats.source_counts[static_cast<std::size_t>(
                core::PredictionSource::kNeuralNet)],
            0u);
  // Serving never stopped: everything fell through to the last resort.
  for (const auto& p : result.predictions) ASSERT_TRUE(p.has_value());
  // No retrain was accepted, so no checkpoint was written.
  EXPECT_FALSE(fs::exists(path.str()));
}

// ------------------------------------------------- e2e acceptance ---

// The ISSUE's acceptance scenario: checkpoint truncation + one
// NaN-poisoned retrain + 5% garbage SWF rows, one seed, end to end. The
// run must complete without aborting, every job gets a prediction with
// provenance, and the same seed reproduces the same fault schedule.
TEST(ResilienceAcceptance, EndToEndFaultSoup) {
  std::ostringstream swf_os;
  tr::save_swf(swf_os, tiny_jobs(260));
  const std::string swf_text = std::move(swf_os).str();

  const auto serve = [&](const std::string& checkpoint) {
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.point(fault::FaultPoint::kIngestGarbage).probability = 0.05;
    plan.point(fault::FaultPoint::kNanPoisonBatch).fire_at = {2};
    plan.point(fault::FaultPoint::kCheckpointTruncate).fire_at = {1};
    fault::ScopedFaultPlan armed(plan);

    tr::SwfOptions swf_options;
    swf_options.max_quarantine_fraction = 0.2;
    tr::QuarantineReport report;
    std::istringstream swf_is(swf_text);
    const auto jobs = tr::load_swf(swf_is, swf_options, &report);
    EXPECT_GT(report.quarantined(), 0u);
    EXPECT_LE(report.fraction(), 0.2);

    auto result =
        serve::ServingSession(tiny_session_options(checkpoint)).replay(jobs);
    return std::pair(std::move(result), report.quarantined());
  };

  CheckpointPath path_a("prionn_test_e2e_a.ckpt");
  const auto [result, quarantined] = serve(path_a.str());

  EXPECT_EQ(result.stats.rejected_retrains, 1u);
  EXPECT_GE(result.training_events, 2u);
  for (const auto& p : result.predictions) {
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(std::isfinite(p->value.runtime_minutes));
  }
  const auto& counts = result.stats.source_counts;
  EXPECT_EQ(counts[0] + counts[1] + counts[2], result.predictions.size());
  // The torn first checkpoint means a restart resumes from last-good.
  const auto restart = core::resume_checkpoint(path_a.str());
  ASSERT_TRUE(restart.checkpoint.has_value());

  // Same seed, fresh run: identical fault schedule, identical outcome.
  CheckpointPath path_b("prionn_test_e2e_b.ckpt");
  const auto [replay, requarantined] = serve(path_b.str());
  EXPECT_EQ(requarantined, quarantined);
  EXPECT_EQ(replay.stats.rejected_retrains, result.stats.rejected_retrains);
  EXPECT_EQ(replay.training_events, result.training_events);
  ASSERT_EQ(replay.predictions.size(), result.predictions.size());
  for (std::size_t i = 0; i < result.predictions.size(); ++i) {
    EXPECT_EQ(replay.predictions[i]->value.runtime_minutes,
              result.predictions[i]->value.runtime_minutes);
    EXPECT_EQ(replay.predictions[i]->source,
              result.predictions[i]->source);
  }
}

}  // namespace
