// Tests for PRIONN's core: value bins, the script-to-image mapping with
// all four transforms, the model factory, the predictor facade, the online
// protocol (as the deterministic serving session runs it), and the phase-2
// pipeline helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iomanip>
#include <latch>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "core/bins.hpp"
#include "core/model_zoo.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "core/script_image.hpp"
#include "core/serve/serving_session.hpp"
#include "embed/word2vec.hpp"
#include "obs/obs.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace core = prionn::core;
namespace tr = prionn::trace;

// ----------------------------------------------------------------- bins ---

TEST(RuntimeBins, PaperConfigurationRoundTrips) {
  core::RuntimeBins bins(960);
  EXPECT_EQ(bins.bins(), 960u);
  EXPECT_EQ(bins.label_of(0.0), 0u);
  EXPECT_EQ(bins.label_of(44.4), 44u);
  EXPECT_EQ(bins.label_of(44.6), 45u);
  EXPECT_EQ(bins.label_of(959.0), 959u);
  EXPECT_EQ(bins.label_of(5000.0), 959u);  // clamped at the 16 h cap
  EXPECT_DOUBLE_EQ(bins.minutes_of(44), 44.0);
}

TEST(RuntimeBins, NegativeClampsToZero) {
  core::RuntimeBins bins(960);
  EXPECT_EQ(bins.label_of(-5.0), 0u);
}

TEST(IoBins, MonotoneAndRoundTripWithinBinWidth) {
  core::IoBins bins(64, 1e4, 1e14);
  std::uint32_t last = 0;
  for (double b = 1e5; b < 1e13; b *= 3.7) {
    const auto label = bins.label_of(b);
    EXPECT_GE(label, last);
    last = label;
    // Decoding must land within one bin width (factor ~1.43 for 64 bins
    // over 10 decades).
    const double decoded = bins.bytes_of(label);
    EXPECT_LT(std::abs(std::log(decoded / b)), std::log(1e10) / 64.0);
  }
}

TEST(IoBins, EdgesClamp) {
  core::IoBins bins(64, 1e4, 1e14);
  EXPECT_EQ(bins.label_of(0.0), 0u);
  EXPECT_EQ(bins.label_of(1e20), 63u);
}

TEST(Bins, RejectInvalid) {
  EXPECT_THROW(core::RuntimeBins(0), std::invalid_argument);
  EXPECT_THROW(core::IoBins(0), std::invalid_argument);
  EXPECT_THROW(core::IoBins(8, 10.0, 1.0), std::invalid_argument);
}

// --------------------------------------------------------- script image ---

namespace {

prionn::embed::CharEmbedding tiny_embedding(std::size_t dim = 4) {
  std::vector<float> table(prionn::embed::CharVocab::kSize * dim);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<float>(i % 7) * 0.1f;
  return {dim, std::move(table)};
}

}  // namespace

TEST(ScriptImage, GridPadsAndCrops) {
  core::ScriptImageOptions opts;
  opts.rows = 4;
  opts.cols = 6;
  opts.transform = core::Transform::kBinary;
  const core::ScriptImageMapper mapper(opts);
  const auto grid = mapper.to_grid("ab\nlongerline\n");
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], "ab    ");
  EXPECT_EQ(grid[1], "longer");  // cropped at 6 columns
  EXPECT_EQ(grid[2], "      ");  // padded empty line
}

TEST(ScriptImage, BinaryTransformSeparatesWhitespace) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 4;
  opts.transform = core::Transform::kBinary;
  const core::ScriptImageMapper mapper(opts);
  const auto img = mapper.map_2d("a b\n");
  EXPECT_EQ(mapper.channels(), 1u);
  EXPECT_EQ(img.shape(), (prionn::tensor::Shape{1, 4, 4}));
  EXPECT_EQ(img.at(0, 0, 0), 1.0f);  // 'a'
  EXPECT_EQ(img.at(0, 0, 1), 0.0f);  // space
  EXPECT_EQ(img.at(0, 0, 2), 1.0f);  // 'b'
}

TEST(ScriptImage, SimpleTransformIsLosslessPerCharacter) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 4;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const auto img = mapper.map_2d("ab\n");
  const float a = img.at(0, 0, 0), b = img.at(0, 0, 1);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, 97.0f / 127.0f, 1e-6f);
  EXPECT_GE(a, 0.0f);
  EXPECT_LE(b, 1.0f);
}

TEST(ScriptImage, OneHotTransformSetsExactlyOneChannel) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 2;
  opts.transform = core::Transform::kOneHot;
  const core::ScriptImageMapper mapper(opts);
  EXPECT_EQ(mapper.channels(), 128u);
  const auto img = mapper.map_2d("A\n");
  float total = 0.0f;
  for (std::size_t c = 0; c < 128; ++c) total += img.at(c, 0, 0);
  EXPECT_FLOAT_EQ(total, 1.0f);
  EXPECT_FLOAT_EQ(img.at(65, 0, 0), 1.0f);
}

TEST(ScriptImage, Word2VecTransformUsesEmbedding) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 2;
  opts.transform = core::Transform::kWord2Vec;
  const core::ScriptImageMapper mapper(opts, tiny_embedding(4));
  EXPECT_EQ(mapper.channels(), 4u);
  const auto img = mapper.map_2d("x");
  const auto embedding = tiny_embedding(4);  // vector_of() returns a span into this
  const auto expected = embedding.vector_of('x');
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_FLOAT_EQ(img.at(d, 0, 0), expected[d]);
}

TEST(ScriptImage, Word2VecWithoutEmbeddingThrows) {
  core::ScriptImageOptions opts;
  opts.transform = core::Transform::kWord2Vec;
  EXPECT_THROW(core::ScriptImageMapper{opts}, std::invalid_argument);
}

TEST(ScriptImage, OneDimensionalIsFlattenedTwoDimensional) {
  core::ScriptImageOptions opts;
  opts.rows = 3;
  opts.cols = 4;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const auto img2 = mapper.map_2d("ab\ncd\n");
  const auto img1 = mapper.map_1d("ab\ncd\n");
  EXPECT_EQ(img1.shape(), (prionn::tensor::Shape{1, 12}));
  for (std::size_t i = 0; i < img1.size(); ++i) EXPECT_EQ(img1[i], img2[i]);
}

TEST(ScriptImage, BatchMatchesSingle) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 8;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const std::vector<std::string> scripts = {"one\n", "two two\n", "#!x\n"};
  const auto batch = mapper.map_batch_2d(scripts);
  EXPECT_EQ(batch.dim(0), 3u);
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    const auto single = mapper.map_2d(scripts[s]);
    for (std::size_t i = 0; i < single.size(); ++i)
      ASSERT_EQ(batch[s * single.size() + i], single[i]);
  }
}

TEST(ScriptImage, TransformNames) {
  EXPECT_EQ(core::transform_name(core::Transform::kBinary), "binary");
  EXPECT_EQ(core::transform_name(core::Transform::kWord2Vec), "word2vec");
}

// ------------------------------------------------------------ model zoo ---

class ModelZooKinds : public ::testing::TestWithParam<core::ModelKind> {};

TEST_P(ModelZooKinds, BuildsAndPropagatesShape) {
  core::ModelConfig cfg;
  cfg.kind = GetParam();
  cfg.channels = 4;
  cfg.rows = cfg.cols = 16;
  cfg.classes = 10;
  cfg.preset = core::ModelPreset::kFast;
  auto net = core::build_model(cfg);
  const prionn::tensor::Shape input =
      cfg.kind == core::ModelKind::kCnn2d
          ? prionn::tensor::Shape{4, 16, 16}
          : prionn::tensor::Shape{4, 256};
  EXPECT_EQ(net.output_shape(input), (prionn::tensor::Shape{10}));
  EXPECT_GT(net.parameter_count(), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelZooKinds,
                         ::testing::Values(core::ModelKind::kFullyConnected,
                                           core::ModelKind::kCnn1d,
                                           core::ModelKind::kCnn2d));

TEST(ModelZoo, PaperPresetIsLarger) {
  core::ModelConfig fast, paper;
  fast.rows = fast.cols = paper.rows = paper.cols = 64;
  fast.classes = paper.classes = 960;
  fast.preset = core::ModelPreset::kFast;
  paper.preset = core::ModelPreset::kPaper;
  EXPECT_GT(core::build_model(paper).parameter_count(),
            core::build_model(fast).parameter_count());
}

TEST(ModelZoo, PaperCnn2dHasFourConvAndFourDense) {
  core::ModelConfig cfg;
  cfg.preset = core::ModelPreset::kPaper;
  auto net = core::build_model(cfg);
  std::size_t convs = 0, denses = 0;
  for (std::size_t i = 0; i < net.depth(); ++i) {
    if (net.layer(i).kind() == "conv2d") ++convs;
    if (net.layer(i).kind() == "dense") ++denses;
  }
  EXPECT_EQ(convs, 4u);   // "four convolutional layers
  EXPECT_EQ(denses, 4u);  //  and four fully connected layers"
}

TEST(ModelZoo, RejectsBadGeometry) {
  core::ModelConfig cfg;
  cfg.rows = 30;  // not divisible by 16
  EXPECT_THROW(core::build_model(cfg), std::invalid_argument);
}

// ------------------------------------------------------------ predictor ---

namespace {

/// Small predictor configuration that trains in well under a second.
core::PredictorOptions tiny_predictor(core::Transform t =
                                          core::Transform::kSimple) {
  core::PredictorOptions o;
  o.image.rows = o.image.cols = 16;
  o.image.transform = t;
  o.runtime_bins = 64;
  o.io_bins = 16;
  o.epochs = 2;
  o.predict_io = true;
  return o;
}

std::vector<tr::JobRecord> tiny_jobs(std::size_t n) {
  tr::WorkloadGenerator gen(tr::WorkloadOptions::cab(n + n / 8));
  auto jobs = tr::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), n));
  return jobs;
}

/// The answer predict_batch gives one script on its own.
core::JobPrediction predict_one(core::PrionnPredictor& p,
                                const std::string& script) {
  return p.predict_batch(std::span<const std::string>(&script, 1))
      .front()
      .value;
}

}  // namespace

TEST(Predictor, TrainPredictSmoke) {
  auto jobs = tiny_jobs(40);
  core::PrionnPredictor p(tiny_predictor());
  EXPECT_FALSE(p.trained());
  p.train(jobs);
  EXPECT_TRUE(p.trained());
  const auto pred = predict_one(p, jobs[0].script);
  EXPECT_GE(pred.runtime_minutes, 1.0);
  EXPECT_LT(pred.runtime_minutes, 64.0);
  EXPECT_GT(pred.bytes_read, 0.0);
  EXPECT_GT(pred.bytes_written, 0.0);
}

TEST(Predictor, PredictBeforeTrainThrows) {
  core::PrionnPredictor p(tiny_predictor());
  EXPECT_THROW(predict_one(p, "#!/bin/bash\n"), std::logic_error);
}

TEST(Predictor, Word2VecRequiresEmbeddingFit) {
  auto jobs = tiny_jobs(20);
  core::PrionnPredictor p(tiny_predictor(core::Transform::kWord2Vec));
  EXPECT_THROW(p.train(jobs), std::logic_error);
  std::vector<std::string> scripts;
  for (const auto& j : jobs) scripts.push_back(j.script);
  p.fit_embedding(scripts);
  p.train(jobs);
  EXPECT_TRUE(p.trained());
}

TEST(Predictor, WarmStartAccumulatesTrainingEvents) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor());
  p.train(jobs);
  p.train(jobs);
  EXPECT_EQ(p.training_events(), 2u);
}

TEST(Predictor, BandwidthDerivedFromTotals) {
  core::JobPrediction p;
  p.runtime_minutes = 2.0;
  p.bytes_read = 1200.0;
  p.bytes_written = 240.0;
  EXPECT_DOUBLE_EQ(p.read_bandwidth(), 10.0);
  EXPECT_DOUBLE_EQ(p.write_bandwidth(), 2.0);
}

TEST(Predictor, RuntimeOnlyModeSkipsIoHeads) {
  auto opts = tiny_predictor();
  opts.predict_io = false;
  auto jobs = tiny_jobs(20);
  core::PrionnPredictor p(opts);
  p.train(jobs);
  const auto pred = predict_one(p, jobs[0].script);
  EXPECT_EQ(pred.bytes_read, 0.0);
  EXPECT_GE(pred.runtime_minutes, 1.0);
}

TEST(Predictor, LearnsRepeatedScripts) {
  // Memorisation check: a few distinct scripts with distinct runtimes,
  // repeated many times, must be predicted accurately after training.
  // One-hot gives the crispest per-character signal for a memorisation
  // check; no dropout since fitting the training set is the whole point.
  auto opts = tiny_predictor(core::Transform::kOneHot);
  opts.epochs = 40;
  opts.predict_io = false;
  opts.runtime_bins = 16;
  opts.dropout = 0.0;
  std::vector<tr::JobRecord> jobs;
  for (int rep = 0; rep < 20; ++rep) {
    for (int v = 0; v < 4; ++v) {
      tr::JobRecord j;
      // The distinguishing text must survive the 16x16 crop, so keep it in
      // the first columns of an early line.
      j.script = "# run v" + std::to_string(v) + "\nsrun -s " +
                 std::to_string(v) + "00\n";
      j.runtime_minutes = 2.0 + 3.0 * v;
      j.bytes_read = j.bytes_written = 1e6;
      jobs.push_back(j);
    }
  }
  core::PrionnPredictor p(opts);
  p.train(jobs);
  std::size_t hits = 0;
  for (int v = 0; v < 4; ++v) {
    const auto pred =
        predict_one(p, jobs[static_cast<std::size_t>(v)].script);
    if (std::abs(pred.runtime_minutes - (2.0 + 3.0 * v)) < 0.5) ++hits;
  }
  EXPECT_GE(hits, 3u);
}

TEST(Predictor, ConfidenceIsValidProbabilityAndConsistent) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor());
  p.train(jobs);
  const std::vector<std::string> scripts{jobs[0].script, jobs[1].script};
  const auto c = p.predict_batch(scripts).front();
  EXPECT_GT(c.runtime_confidence, 0.0);
  EXPECT_LE(c.runtime_confidence, 1.0);
  EXPECT_GT(c.read_confidence, 0.0);
  EXPECT_LE(c.write_confidence, 1.0);
  // The script alone gets the same answer with the same confidence.
  const auto alone =
      p.predict_batch(std::span<const std::string>(scripts.data(), 1))
          .front();
  EXPECT_DOUBLE_EQ(c.value.runtime_minutes, alone.value.runtime_minutes);
  EXPECT_DOUBLE_EQ(c.value.bytes_read, alone.value.bytes_read);
  EXPECT_DOUBLE_EQ(c.runtime_confidence, alone.runtime_confidence);
}

TEST(Predictor, SaveLoadRoundTripPreservesPredictions) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor(core::Transform::kWord2Vec));
  std::vector<std::string> scripts;
  for (const auto& j : jobs) scripts.push_back(j.script);
  p.fit_embedding(scripts);
  p.train(jobs);

  std::stringstream ss;
  p.save(ss);
  auto loaded = core::PrionnPredictor::load(ss);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.training_events(), p.training_events());
  for (std::size_t i = 0; i < 5; ++i) {
    const auto a = predict_one(p, jobs[i].script);
    const auto b = predict_one(loaded, jobs[i].script);
    EXPECT_DOUBLE_EQ(a.runtime_minutes, b.runtime_minutes);
    EXPECT_DOUBLE_EQ(a.bytes_read, b.bytes_read);
    EXPECT_DOUBLE_EQ(a.bytes_written, b.bytes_written);
  }
  // The loaded predictor can keep training (warm start after restart).
  loaded.train(jobs);
  EXPECT_EQ(loaded.training_events(), p.training_events() + 1);
}

TEST(Predictor, ConcurrentHeadsMatchInlineHeadsBitwise) {
  // train() fits its heads concurrently on the pool; issued from inside a
  // pool chunk, the same loop runs the heads inline one after another.
  // Both schedules must produce the same bytes.
  auto jobs = tiny_jobs(40);
  for (const auto transform :
       {core::Transform::kSimple, core::Transform::kWord2Vec}) {
    SCOPED_TRACE(core::transform_name(transform));
    core::PrionnPredictor seed_model(tiny_predictor(transform));
    std::vector<std::string> scripts;
    for (const auto& j : jobs) scripts.push_back(j.script);
    seed_model.fit_embedding(scripts);
    const std::string seed_bytes = seed_model.snapshot();
    auto concurrent = core::PrionnPredictor::from_snapshot(seed_bytes);
    auto inline_heads = core::PrionnPredictor::from_snapshot(seed_bytes);
    ASSERT_TRUE(concurrent.options().predict_io);

    for (int event = 0; event < 2; ++event) {
      const auto a = concurrent.train(jobs);
      core::PrionnPredictor::TrainReport b;
      prionn::util::parallel_for(0, 2, [&](std::size_t i) {
        if (i == 0) b = inline_heads.train(jobs);
      });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.runtime_loss),
                std::bit_cast<std::uint64_t>(b.runtime_loss));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.read_loss),
                std::bit_cast<std::uint64_t>(b.read_loss));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.write_loss),
                std::bit_cast<std::uint64_t>(b.write_loss));
      EXPECT_TRUE(concurrent.snapshot() == inline_heads.snapshot())
          << "event " << event;
    }
  }
}

namespace {

/// The batch tensor predict_batch_mapped() takes: the first `n` scripts'
/// samples stacked along a leading axis.
prionn::tensor::Tensor mapped_batch(const core::PrionnPredictor& p,
                                    const std::vector<std::string>& scripts,
                                    std::size_t n) {
  std::vector<prionn::tensor::Tensor> samples;
  for (std::size_t i = 0; i < n; ++i)
    samples.push_back(p.map_sample(scripts[i]));
  prionn::tensor::Shape shape{n};
  for (std::size_t axis = 0; axis < samples[0].rank(); ++axis)
    shape.push_back(samples[0].dim(axis));
  prionn::tensor::Tensor batch(std::move(shape));
  const std::size_t size = samples[0].size();
  for (std::size_t i = 0; i < n; ++i)
    std::copy(samples[i].data(), samples[i].data() + size,
              batch.data() + i * size);
  return batch;
}

}  // namespace

TEST(Predictor, ConcurrentInferenceHeadsMatchInlineBitwise) {
  // predict_batch_mapped() runs its heads' forwards concurrently on the
  // pool; issued from inside a pool chunk, the same loop runs the heads
  // inline one after another. Both schedules must give the same bits.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  auto jobs = tiny_jobs(40);
  std::vector<std::string> scripts;
  for (const auto& j : jobs) scripts.push_back(j.script);
  for (const auto transform :
       {core::Transform::kSimple, core::Transform::kWord2Vec}) {
    SCOPED_TRACE(core::transform_name(transform));
    core::PrionnPredictor p(tiny_predictor(transform));
    ASSERT_TRUE(p.options().predict_io);
    p.fit_embedding(scripts);
    p.train(jobs);
    for (const std::size_t n : {1u, 32u}) {
      SCOPED_TRACE(n);
      const auto batch = mapped_batch(p, scripts, n);
      const auto concurrent = p.predict_batch_mapped(batch);
      std::vector<core::ConfidentPrediction> inline_heads;
      prionn::util::parallel_for(0, 2, [&](std::size_t i) {
        if (i == 0) inline_heads = p.predict_batch_mapped(batch);
      });
      ASSERT_EQ(concurrent.size(), n);
      ASSERT_EQ(inline_heads.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& a = concurrent[i];
        const auto& b = inline_heads[i];
        EXPECT_EQ(bits(a.value.runtime_minutes),
                  bits(b.value.runtime_minutes));
        EXPECT_EQ(bits(a.value.bytes_read), bits(b.value.bytes_read));
        EXPECT_EQ(bits(a.value.bytes_written), bits(b.value.bytes_written));
        EXPECT_EQ(bits(a.runtime_confidence), bits(b.runtime_confidence));
        EXPECT_EQ(bits(a.read_confidence), bits(b.read_confidence));
        EXPECT_EQ(bits(a.write_confidence), bits(b.write_confidence));
      }
    }
  }
}

#if PRIONN_OBS_ENABLED
TEST(Predictor, EachHeadForwardIsTimedAndTraced) {
  auto& head_forwards =
      prionn::obs::registry().latency("prionn_predict_head_latency_ns");
  auto& inline_heads =
      prionn::obs::registry().counter("prionn_predict_heads_inline_total");
  auto& spans = prionn::obs::trace_buffer();
  const auto jobs = tiny_jobs(20);
  const std::vector<std::string> scripts{jobs[0].script, jobs[1].script};
  auto& pool = prionn::util::ThreadPool::global();
  for (const bool predict_io : {true, false}) {
    auto opts = tiny_predictor();
    opts.predict_io = predict_io;
    core::PrionnPredictor p(opts);
    p.train(jobs);
    const std::size_t heads = predict_io ? 3 : 1;

    spans.clear();
    const std::uint64_t before = head_forwards.count();
    const std::uint64_t inline_before = inline_heads.value();
    p.predict_batch(scripts);
    EXPECT_EQ(head_forwards.count(), before + heads);
    EXPECT_EQ(inline_heads.value(), inline_before);
    std::size_t head_spans = 0;
    for (const auto& span : spans.snapshot())
      if (std::string_view(span.name) == "predict.head_forward") ++head_spans;
    EXPECT_EQ(head_spans, heads);

    // With another thread's loop holding the pool, the heads run inline
    // and are counted; one head never fans out, so it never is.
    std::latch held(1), release(1);
    std::thread parked([&] {
      pool.parallel_for(0, 2, [&](std::size_t i) {
        if (i != 0) return;
        held.count_down();
        release.wait();
      });
    });
    held.wait();
    p.predict_batch_mapped(mapped_batch(p, scripts, scripts.size()));
    release.count_down();
    parked.join();
    const bool fans_out = predict_io && pool.size() > 1;
    EXPECT_EQ(inline_heads.value(), inline_before + (fans_out ? heads : 0));
    EXPECT_EQ(head_forwards.count(), before + 2 * heads);
  }
}

TEST(Predictor, EachHeadFitIsTimedAndTraced) {
  auto& head_fits =
      prionn::obs::registry().latency("prionn_train_head_latency_ns");
  auto& spans = prionn::obs::trace_buffer();
  const auto jobs = tiny_jobs(20);
  for (const bool predict_io : {true, false}) {
    auto opts = tiny_predictor();
    opts.predict_io = predict_io;
    core::PrionnPredictor p(opts);
    spans.clear();
    const std::uint64_t before = head_fits.count();
    p.train(jobs);
    const std::size_t heads = predict_io ? 3 : 1;
    EXPECT_EQ(head_fits.count(), before + heads);
    std::size_t head_spans = 0;
    for (const auto& span : spans.snapshot())
      if (std::string_view(span.name) == "train.head_fit") ++head_spans;
    EXPECT_EQ(head_spans, heads);
  }
}
#endif  // PRIONN_OBS_ENABLED

TEST(Predictor, LoadRejectsGarbage) {
  std::stringstream ss("definitely not a predictor checkpoint");
  EXPECT_THROW(core::PrionnPredictor::load(ss), std::runtime_error);
}

// --------------------------------------------------------------- online ---

namespace {

/// The §2.3 protocol at test scale, as every replay runs it: a
/// deterministic serving session.
core::serve::SessionOptions tiny_session(core::Transform t =
                                             core::Transform::kSimple) {
  core::serve::SessionOptions o;
  o.service.predictor = tiny_predictor(t);
  o.service.predictor.predict_io = false;
  o.service.protocol.retrain_interval = 50;
  o.service.protocol.train_window = 100;
  o.service.protocol.min_initial_completions = 30;
  return o;
}

}  // namespace

TEST(Online, ProtocolProducesPredictionsAfterWarmup) {
  auto jobs = tiny_jobs(260);
  const auto result = core::serve::ServingSession(tiny_session()).replay(jobs);
  const auto nn = result.nn_predictions();
  EXPECT_EQ(nn.size(), jobs.size());
  EXPECT_GE(result.training_events, 2u);
  std::size_t predicted = 0;
  for (const auto& p : nn) {
    if (!p) continue;
    ++predicted;
    EXPECT_GE(p->runtime_minutes, 1.0);
  }
  EXPECT_GT(predicted, jobs.size() / 3);
  // Cold start: the fallback chain answers before the first retrain.
  EXPECT_FALSE(nn[0].has_value());
  ASSERT_TRUE(result.predictions[0].has_value());
  EXPECT_NE(result.predictions[0]->source,
            core::PredictionSource::kNeuralNet);
  EXPECT_GT(result.retrain_ns, 0u);
}

TEST(Online, ColdRetrainAblationRuns) {
  auto jobs = tiny_jobs(200);
  auto options = tiny_session(core::Transform::kWord2Vec);
  options.service.protocol.retrain_interval = 40;
  options.service.protocol.train_window = 80;
  const auto warm = core::serve::ServingSession(options).replay(jobs);
  options.service.reinitialize_on_retrain = true;
  const auto cold = core::serve::ServingSession(options).replay(jobs);

  // Where the retrains happen: the cadence alone decides.
  core::CompletionFeed feed(jobs);
  core::RetrainCadence cadence(options.service.protocol);
  std::vector<std::size_t> retrains;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    feed.advance(jobs[i].submit_time);
    if (cadence.due(feed.completed().size())) {
      cadence.start_attempt();
      cadence.finish_attempt(true);
      retrains.push_back(i);
    }
    cadence.count_submission();
    feed.submit(i);
  }
  ASSERT_GE(retrains.size(), 3u);
  EXPECT_EQ(warm.training_events, retrains.size());
  EXPECT_EQ(cold.training_events, retrains.size());

  // The first retrain starts from fresh weights either way, so the runs
  // agree bit for bit until the second; from there the cold run trains
  // fresh weights and its answers move away from the warm run's.
  std::size_t differing = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(warm.predictions[i] && cold.predictions[i]);
    const bool same = warm.predictions[i]->source ==
                          cold.predictions[i]->source &&
                      warm.predictions[i]->value.runtime_minutes ==
                          cold.predictions[i]->value.runtime_minutes;
    if (i < retrains[1])
      EXPECT_TRUE(same) << "job " << i;
    else if (!same)
      ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(Online, RejectsBadOptions) {
  auto options = tiny_session();
  options.service.protocol.retrain_interval = 0;
  EXPECT_THROW(core::serve::ServingSession{options}, std::invalid_argument);
}

// ------------------------------------------------------------- pipeline ---

namespace {

std::vector<core::JobPrediction> perfect_predictions(
    const std::vector<tr::JobRecord>& jobs) {
  std::vector<core::JobPrediction> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i].runtime_minutes = jobs[i].runtime_minutes;
    out[i].bytes_read = jobs[i].bytes_read;
    out[i].bytes_written = jobs[i].bytes_written;
  }
  return out;
}

}  // namespace

TEST(Pipeline, PerfectRuntimePredictionsBeatUserEstimates) {
  const auto jobs = tiny_jobs(150);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  ASSERT_EQ(eval.simulated.size(), jobs.size());

  std::vector<double> acc_user, acc_prionn;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (eval.simulated[i] <= 0.0) continue;
    acc_user.push_back(prionn::util::relative_accuracy(
        eval.simulated[i], eval.predicted_user[i]));
    acc_prionn.push_back(prionn::util::relative_accuracy(
        eval.simulated[i], eval.predicted_prionn[i]));
  }
  // Even perfect runtimes cannot anticipate future arrivals, so the
  // prediction is not exact under contention — but it must clearly beat
  // user-requested runtimes (Fig. 11b's ordering) and be strong overall.
  EXPECT_GT(prionn::util::mean(acc_prionn), 0.6);
  EXPECT_GT(prionn::util::mean(acc_prionn), prionn::util::mean(acc_user));
}

TEST(Pipeline, ActualIntervalsMatchSchedule) {
  const auto jobs = tiny_jobs(60);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  const auto intervals = core::actual_io_intervals(jobs, eval.schedule);
  EXPECT_EQ(intervals.size(), eval.schedule.size());
  for (const auto& iv : intervals) {
    EXPECT_GT(iv.end_time, iv.start_time);
    EXPECT_GE(iv.bandwidth, 0.0);
  }
}

TEST(Pipeline, IdenticalTimelinesScorePerfectly) {
  const auto jobs = tiny_jobs(100);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  const auto actual = core::actual_io_intervals(jobs, eval.schedule);
  const auto predicted =
      core::predicted_io_intervals_perfect(jobs, eval.schedule, preds);
  const auto io = core::evaluate_system_io(actual, predicted, opts);
  // Perfect IO predictions on the true schedule: accuracy 1 everywhere,
  // every burst matched.
  EXPECT_GT(prionn::util::mean(io.accuracies), 0.999);
  for (const auto& w : io.windows) {
    EXPECT_DOUBLE_EQ(w.score.sensitivity(),
                     w.score.true_positives == 0 &&
                             w.score.false_negatives == 0
                         ? 0.0
                         : 1.0);
    EXPECT_EQ(w.score.false_positives, 0u);
  }
}

TEST(Pipeline, PredictedIntervalsUseTurnaround) {
  tr::JobRecord j;
  j.submit_time = 100.0;
  j.runtime_minutes = 2.0;
  j.bytes_read = 6000.0;
  j.bytes_written = 6000.0;
  core::JobPrediction p;
  p.runtime_minutes = 2.0;
  p.bytes_read = 12000.0;
  p.bytes_written = 0.0;
  const auto intervals = core::predicted_io_intervals_predicted(
      {j}, {300.0}, {p});
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].end_time, 400.0);     // submit + turnaround
  EXPECT_DOUBLE_EQ(intervals[0].start_time, 280.0);   // end - 2 min
  EXPECT_DOUBLE_EQ(intervals[0].bandwidth, 100.0);    // 12000 B / 120 s
}

TEST(Pipeline, NegativeTurnaroundSkipsJob) {
  tr::JobRecord j;
  core::JobPrediction p;
  p.runtime_minutes = 1.0;
  const auto intervals =
      core::predicted_io_intervals_predicted({j}, {-1.0}, {p});
  EXPECT_TRUE(intervals.empty());
}

TEST(Pipeline, SizeMismatchesThrow) {
  const auto jobs = tiny_jobs(10);
  EXPECT_THROW(core::evaluate_turnaround(jobs, {}), std::invalid_argument);
  EXPECT_THROW(core::predicted_io_intervals_predicted(jobs, {}, {}),
               std::invalid_argument);
}

// ------------------------------------------ turnaround golden digests ---

namespace {

/// FNV-1a over the bit patterns of every job's simulated, user-predicted
/// and PRIONN-predicted turnaround, in job order.
std::string turnaround_digest(const core::TurnaroundEval& eval) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&](double v) {
    auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h ^= bits & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < eval.simulated.size(); ++i) {
    add(eval.simulated[i]);
    add(eval.predicted_user[i]);
    add(eval.predicted_prionn[i]);
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

/// A Cab-like trace for a `nodes`-node machine: node requests clamped to
/// the machine and, when `load` > 0, submit times rescaled so the trace
/// offers that load (node-seconds over machine-seconds). Submit times are
/// rounded to whole seconds: the generator's own submit times differ in
/// the last bits between FMA and non-FMA builds, and its runtimes and
/// requests are whole minutes already, so the digests below hold in both.
std::vector<tr::JobRecord> machine_jobs(std::size_t n, std::uint64_t seed,
                                        std::uint32_t nodes, double load) {
  tr::WorkloadGenerator gen(tr::WorkloadOptions::cab(n, seed));
  auto jobs = tr::completed_jobs(gen.generate());
  double node_seconds = 0.0;
  for (auto& j : jobs) {
    j.requested_nodes = std::min(j.requested_nodes, nodes);
    node_seconds +=
        std::max<std::uint32_t>(1, j.requested_nodes) * j.runtime_seconds();
  }
  if (load > 0.0) {
    const double t0 = jobs.front().submit_time;
    const double span = node_seconds / (nodes * load);
    const double scale = span / (jobs.back().submit_time - t0);
    for (auto& j : jobs) j.submit_time = (j.submit_time - t0) * scale;
  }
  for (auto& j : jobs) j.submit_time = std::round(j.submit_time);
  return jobs;
}

/// Runtime predictions off by a seeded factor in [0.5, 1.5), in whole
/// seconds.
std::vector<core::JobPrediction> noisy_predictions(
    const std::vector<tr::JobRecord>& jobs, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  std::vector<core::JobPrediction> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out[i].runtime_minutes =
        std::round(jobs[i].runtime_seconds() * rng.uniform(0.5, 1.5)) / 60.0;
  return out;
}

}  // namespace

TEST(Pipeline, TurnaroundBitsMatchGoldenDigests) {
  // Digests of evaluate_turnaround's three result vectors, recorded from
  // the full replay-to-completion snapshot. The 48-node machine at load
  // 0.9 keeps long queues behind blocked heads (the replay path); the
  // default machine mostly starts jobs on submit.
  struct Case {
    std::uint64_t seed;
    std::uint32_t nodes;
    std::size_t jobs;
    double load;
    const char* digest;
  };
  const Case cases[] = {
      {1, 48, 1500, 0.9, "d1a48e3be758923e"},
      {2, 48, 1500, 0.9, "b0fcf3ce678cb7dc"},
      {3, 48, 1500, 0.9, "529438e0ac91db41"},
      {1, 1296, 3000, 0.0, "2c28deed43656b8d"},
      {2, 1296, 3000, 0.0, "639e0dd7afbbd5ac"},
      {3, 1296, 3000, 0.0, "1404109e3698a176"},
  };
  for (const Case& c : cases) {
    const auto jobs = machine_jobs(c.jobs, c.seed, c.nodes, c.load);
    core::Phase2Options opts;
    opts.cluster.total_nodes = c.nodes;
    const auto eval =
        core::evaluate_turnaround(jobs, noisy_predictions(jobs, c.seed), opts);
    EXPECT_EQ(turnaround_digest(eval), c.digest)
        << "seed " << c.seed << ", " << c.nodes << " nodes";
  }
}

#if PRIONN_OBS_ENABLED
TEST(Pipeline, UncontendedTurnaroundEvalReplaysNothing) {
  // Every job starts on submission, so each query is answered from the
  // running target's own prediction and no snapshot is replayed.
  auto& steps = prionn::obs::registry().counter(
      "prionn_sched_snapshot_replay_steps_total");
  const auto jobs = tiny_jobs(200);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 1u << 20;
  const std::uint64_t before = steps.value();
  const auto eval =
      core::evaluate_turnaround(jobs, noisy_predictions(jobs, 5), opts);
  EXPECT_EQ(steps.value(), before);
  for (const auto& s : eval.schedule) ASSERT_EQ(s.wait(), 0.0) << s.id;
}

TEST(Pipeline, TurnaroundEvalLeavesIoSchedulerCountersAlone) {
  // The IO scheduler's counters count its own dispatches and holds: the
  // base simulation and the snapshot replays of evaluate_turnaround add
  // to neither.
  auto& registry = prionn::obs::registry();
  auto& steps = registry.counter("prionn_sched_snapshot_replay_steps_total");
  auto& started = registry.counter("prionn_sched_jobs_started_total");
  auto& holds = registry.counter("prionn_sched_io_holds_total");
  const auto jobs = machine_jobs(600, 1, 48, 0.9);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 48;
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t started_before = started.value();
  const std::uint64_t holds_before = holds.value();
  core::evaluate_turnaround(jobs, noisy_predictions(jobs, 1), opts);
  EXPECT_GT(steps.value(), steps_before);  // queued targets were replayed
  EXPECT_EQ(started.value(), started_before);
  EXPECT_EQ(holds.value(), holds_before);
}
#endif  // PRIONN_OBS_ENABLED
