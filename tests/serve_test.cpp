// Tests for the concurrent serving subsystem (core/serve/): the encoding
// cache, the micro-batched PredictionService with background retrain and
// atomic model swap, and the ServingSession replay modes. The
// concurrency-heavy cases here are the payload of the TSan CI job.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core/serve/encoding_cache.hpp"
#include "core/serve/prediction_service.hpp"
#include "core/serve/serving_session.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "trace/workload.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace core = prionn::core;
namespace serve = prionn::core::serve;
namespace tr = prionn::trace;
namespace fault = prionn::util::fault;
namespace obs = prionn::obs;

namespace {

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

serve::ServiceOptions tiny_service(core::Transform t =
                                       core::Transform::kSimple) {
  serve::ServiceOptions o;
  o.predictor = tiny_predictor(t);
  o.protocol.retrain_interval = 20;
  o.protocol.train_window = 60;
  o.protocol.embedding_corpus = 60;
  o.protocol.min_initial_completions = 15;
  return o;
}

}  // namespace

// -------------------------------------------------------- encoding cache ---

TEST(EncodingCache, HitRefreshesAndEvictsLru) {
  serve::EncodingCache cache(2);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  cache.insert("b", prionn::tensor::Tensor({1}, 2.0f));
  ASSERT_NE(cache.find("a"), nullptr);  // refresh: "b" is now LRU
  cache.insert("c", prionn::tensor::Tensor({1}, 3.0f));
  EXPECT_EQ(cache.find("b"), nullptr);  // evicted
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_FLOAT_EQ(cache.find("a")->data()[0], 1.0f);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.hits(), 3u);
  EXPECT_GE(cache.misses(), 1u);
}

TEST(EncodingCache, ZeroCapacityDisables) {
  serve::EncodingCache cache(0);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EncodingCache, ClearDropsEverything) {
  serve::EncodingCache cache(8);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  cache.insert("b", prionn::tensor::Tensor({1}, 2.0f));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("a"), nullptr);
}

// ------------------------------------------------------- options validate ---

TEST(ServeOptions, ValidateRejectsDegenerateParameters) {
  serve::ServiceOptions o = tiny_service();
  o.batching.max_batch = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = tiny_service();
  o.batching.queue_capacity = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = tiny_service();
  o.protocol.retrain_interval = 0;
  EXPECT_THROW(serve::PredictionService{o}, std::invalid_argument);
}

TEST(OnlineProtocolOptions, SharedValidationGuardsEveryConsumer) {
  serve::SessionOptions o;
  o.service = tiny_service();
  o.service.protocol.train_window = 0;
  EXPECT_THROW(serve::ServingSession{o}, std::invalid_argument);
  o.service = tiny_service();
  o.service.protocol.embedding_corpus = 0;
  EXPECT_THROW(serve::ServingSession{o}, std::invalid_argument);
}

TEST(ServingSession, CheckpointNeedsDeterministicMode) {
  serve::SessionOptions o;
  o.service = tiny_service();
  o.mode = serve::ReplayMode::kConcurrent;
  o.checkpoint_path = "unused.ckpt";
  EXPECT_THROW(serve::ServingSession{o}, std::invalid_argument);
}

// ------------------------------------------------- deterministic replay ----

// The §2.3 protocol one job at a time, straight from core/online's parts:
// the oracle the deterministic session is held to. A rejected retrain is
// undone by restoring the snapshot taken before it, where the service
// instead trains a shadow copy and drops it.
struct ReferenceRun {
  std::vector<core::ProvenancedPrediction> predictions;
  std::vector<obs::RetrainEvent> events;  // duration_ms left at 0
};

ReferenceRun reference_replay(const std::vector<tr::JobRecord>& jobs,
                              const serve::ServiceOptions& options) {
  ReferenceRun run;
  core::PrionnPredictor model(options.predictor);
  core::FallbackPredictor fallback(options.fallback);
  core::CompletionFeed feed(jobs);
  core::RetrainCadence cadence(options.protocol,
                               options.guards.max_consecutive_rejections);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    feed.advance(jobs[i].submit_time);
    if (cadence.due(feed.completed().size())) {
      const std::size_t attempt = cadence.start_attempt();
      const auto recent = feed.recent(options.protocol.retrain_records(
          model, feed.completed().size()));
      const std::string snapshot = model.snapshot();
      auto event = core::attempt_retrain(model, recent, options.protocol,
                                         options.guards);
      if (event.accepted)
        fallback.fit_baseline(core::training_window(recent, options.protocol));
      else
        model = core::PrionnPredictor::from_snapshot(snapshot);
      cadence.finish_attempt(event.accepted);
      event.window_id = attempt;
      event.job_index = i;
      event.benched = cadence.benched();
      run.events.push_back(event);
    }
    run.predictions.push_back(
        fallback.predict(cadence.benched() ? nullptr : &model, jobs[i]));
    cadence.count_submission();
    feed.submit(i);
  }
  return run;
}

// The retrain attempts one replay emitted, in order, with the wall-clock
// field cleared.
std::vector<obs::RetrainEvent> retrain_events() {
  std::vector<obs::RetrainEvent> out;
  for (const auto& line : obs::event_log().lines()) {
    auto event = obs::EventLog::parse_retrain(line);
    if (!event) continue;
    event->duration_ms = 0.0;
    out.push_back(*event);
  }
  return out;
}

// The acceptance bar for the whole subsystem: replaying a trace through
// the micro-batched service (deterministic mode) gives every job the
// reference loop's answer from the reference loop's source, and every
// retrain attempt the same RetrainEvent, with or without a NaN-poisoned
// retrain (`poisoned_retrain` 0 means no fault). Batching, the encoding
// cache, and the shadow-train/swap cycle may only change the wall clock,
// never the arithmetic.
void expect_replay_equals_reference_loop(core::Transform transform,
                                         std::uint64_t poisoned_retrain) {
  SCOPED_TRACE(::testing::Message()
               << "word2vec " << (transform == core::Transform::kWord2Vec)
               << ", poisoned retrain " << poisoned_retrain);
  const auto jobs = tiny_jobs(120);
  obs::set_enabled(true);
  serve::SessionOptions session_options;
  session_options.service = tiny_service(transform);
  // Runtime-head confidences here run from 0.03 to 0.18.
  session_options.service.fallback.min_confidence = 0.06;
  session_options.mode = serve::ReplayMode::kDeterministic;

  fault::FaultPlan plan;
  if (poisoned_retrain > 0)
    plan.point(fault::FaultPoint::kNanPoisonBatch).fire_at = {
        poisoned_retrain};

  ReferenceRun reference;
  {
    fault::ScopedFaultPlan armed(plan);
    reference = reference_replay(jobs, session_options.service);
  }
  obs::event_log().clear();
  serve::SessionResult served;
  {
    fault::ScopedFaultPlan armed(plan);
    served = serve::ServingSession(session_options).replay(jobs);
  }
  const auto served_events = retrain_events();
  obs::set_enabled(false);
  obs::event_log().clear();

  std::size_t rejected = 0;
  for (const auto& e : reference.events) rejected += e.accepted ? 0 : 1;
  EXPECT_EQ(rejected, poisoned_retrain > 0 ? 1u : 0u);
  EXPECT_EQ(served.stats.rejected_retrains, rejected);
  EXPECT_EQ(served.training_events, reference.events.size() - rejected);
  // The workload's 65% script-repeat rate must show up as cache hits.
  EXPECT_GT(served.stats.cache_hits, 0u);
  EXPECT_GT(served.stats.batches, 0u);
  EXPECT_EQ(served.stats.served, jobs.size());
  ASSERT_EQ(served.predictions.size(), jobs.size());
  std::array<std::size_t, 3> sources{};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(served.predictions[i].has_value()) << "job " << i;
    const auto& ref = reference.predictions[i];
    const auto& svc = *served.predictions[i];
    EXPECT_EQ(svc.source, ref.source) << "job " << i;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(svc.value.runtime_minutes, ref.value.runtime_minutes)
        << "job " << i;
    EXPECT_EQ(svc.value.bytes_read, ref.value.bytes_read) << "job " << i;
    EXPECT_EQ(svc.value.bytes_written, ref.value.bytes_written)
        << "job " << i;
    ++sources[static_cast<std::size_t>(ref.source)];
  }
  // At this floor both legs answer: (NN, RF, requested) counts are
  // 63/40/17, 63/20/37 and 43/60/17 for the simple transform with no
  // fault, the 1st and the 2nd retrain poisoned, and 43/60/17,
  // 63/20/37 and 43/60/17 for word2vec (-march=native build).
  EXPECT_GT(
      sources[static_cast<std::size_t>(core::PredictionSource::kNeuralNet)],
      0u);
  EXPECT_GT(sources[static_cast<std::size_t>(
                core::PredictionSource::kRandomForest)],
            0u);

  if (!obs::kEnabled) return;  // no event log in obs-off builds
  ASSERT_EQ(served_events.size(), reference.events.size());
  for (std::size_t e = 0; e < served_events.size(); ++e) {
    const auto& a = reference.events[e];
    const auto& b = served_events[e];
    EXPECT_EQ(b.window_id, a.window_id) << "event " << e;
    EXPECT_EQ(b.job_index, a.job_index) << "event " << e;
    EXPECT_EQ(b.window_size, a.window_size) << "event " << e;
    EXPECT_EQ(b.holdback_size, a.holdback_size) << "event " << e;
    EXPECT_EQ(b.loss, a.loss) << "event " << e;
    EXPECT_EQ(b.holdback_accuracy, a.holdback_accuracy) << "event " << e;
    EXPECT_EQ(b.accepted, a.accepted) << "event " << e;
    EXPECT_EQ(b.benched, a.benched) << "event " << e;
  }
}

// The three tests below keep the names of the trainer classes the
// reference loop stands in for: the plain §2.3 trainer (no fault, simple
// and word2vec) and the guarded trainer (a poisoned retrain).

TEST(ServingSession, DeterministicReplayEqualsOnlineTrainer) {
  expect_replay_equals_reference_loop(core::Transform::kSimple, 0);
}

// Word2vec adds the embedding fit inside the shadow retrain and the cache
// invalidation that follows the swap.
TEST(ServingSession, DeterministicReplayEqualsOnlineTrainerWord2Vec) {
  expect_replay_equals_reference_loop(core::Transform::kWord2Vec, 0);
}

// A rejected retrain is rolled back on both sides; a rejected first
// word2vec retrain must leave no embedding behind.
TEST(ServingSession, DeterministicReplayEqualsResilientTrainer) {
  for (const auto transform :
       {core::Transform::kSimple, core::Transform::kWord2Vec})
    for (const std::uint64_t poisoned_retrain : {1, 2})
      expect_replay_equals_reference_loop(transform, poisoned_retrain);
}

// Cache on vs cache off must be indistinguishable in the answers — across
// model swaps too (an accepted retrain must not serve stale encodings).
TEST(ServingSession, EncodingCacheDoesNotChangePredictions) {
  const auto jobs = tiny_jobs(70);

  serve::SessionOptions with_cache;
  with_cache.service = tiny_service();
  serve::ServingSession cached(with_cache);
  const auto a = cached.replay(jobs);

  serve::SessionOptions without_cache;
  without_cache.service = tiny_service();
  without_cache.service.encoding_cache_capacity = 0;
  serve::ServingSession uncached(without_cache);
  const auto b = uncached.replay(jobs);

  EXPECT_GT(a.stats.swaps, 1u);       // the cache survived >= 1 swap
  EXPECT_GT(a.stats.cache_hits, 0u);  // and was actually used
  EXPECT_EQ(b.stats.cache_hits, 0u);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_TRUE(a.predictions[i] && b.predictions[i]);
    EXPECT_EQ(a.predictions[i]->source, b.predictions[i]->source);
    EXPECT_EQ(a.predictions[i]->value.runtime_minutes,
              b.predictions[i]->value.runtime_minutes);
    EXPECT_EQ(a.predictions[i]->value.bytes_read,
              b.predictions[i]->value.bytes_read);
  }
}

// ------------------------------------------------------- concurrency ------

// The TSan payload: submissions from several threads race completions and
// background retrains (shadow train + model swap). Every future must
// resolve, and the books must balance.
TEST(PredictionService, ConcurrentSubmitSurvivesBackgroundRetrain) {
  const auto jobs = tiny_jobs(80);
  serve::ServiceOptions options = tiny_service();
  options.protocol.min_initial_completions = 10;
  options.protocol.retrain_interval = 10;
  options.background_retrain = true;
  serve::PredictionService service(options);

  // Seed the window so the first submissions already arm a retrain.
  for (std::size_t i = 0; i < 20; ++i) service.complete(jobs[i]);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 15;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const auto& job = jobs[(t * kPerThread + k) % jobs.size()];
        auto prediction = service.submit(job).get();
        EXPECT_GE(prediction.value.runtime_minutes, 1.0);
        // Interleave more completions to keep the trainer racing.
        service.complete(jobs[(k * 7 + t) % jobs.size()]);
      }
    });
  }
  for (auto& w : workers) w.join();
  service.flush();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_EQ(stats.source_counts[0] + stats.source_counts[1] +
                stats.source_counts[2],
            stats.served);
  EXPECT_GE(service.training_events(), 1u);

  // After flush() the armed retrain has been published: a fresh
  // submission must now be served by the swapped-in neural net.
  const auto prediction = service.predict_now(jobs[0]);
  EXPECT_EQ(prediction.source, core::PredictionSource::kNeuralNet);
  EXPECT_GT(prediction.confidence, 0.0);
}

TEST(PredictionService, BatcherDoesNotWaitOnABusyPool) {
  // The batcher fans its heads out on global(), but never waits there:
  // with another thread's loop holding the pool (a retrain_now() caller's
  // head fits, say), it runs the heads itself and answers at once.
  const auto jobs = tiny_jobs(40);
  serve::ServiceOptions options = tiny_service();
  options.background_retrain = false;
  serve::PredictionService service(options);
  for (const auto& job : jobs) service.complete(job);
  ASSERT_TRUE(service.retrain_now());

  const auto submit_all = [&] {
    std::vector<std::future<core::ProvenancedPrediction>> futures;
    for (const auto& job : jobs) futures.push_back(service.submit(job));
    return futures;
  };
  std::vector<core::ProvenancedPrediction> idle;
  for (auto& f : submit_all()) idle.push_back(f.get());

  std::latch held(1), release(1);
  std::thread parked([&] {
    prionn::util::ThreadPool::global().parallel_for(
        0, 2, [&](std::size_t i) {
          if (i != 0) return;
          held.count_down();
          release.wait();
        });
  });
  held.wait();
  auto futures = submit_all();
  // A bound, not a sleep: a batcher queued behind the parked loop would
  // never answer, and the test must fail rather than hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<bool> ready;
  for (auto& f : futures)
    ready.push_back(f.wait_until(deadline) == std::future_status::ready);
  release.count_down();
  parked.join();

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(ready[i]) << "job " << i << " waited on the busy pool";
    const auto busy = futures[i].get();
    EXPECT_EQ(busy.source, idle[i].source) << "job " << i;
    EXPECT_EQ(bits(busy.value.runtime_minutes),
              bits(idle[i].value.runtime_minutes));
    EXPECT_EQ(bits(busy.value.bytes_read), bits(idle[i].value.bytes_read));
    EXPECT_EQ(bits(busy.value.bytes_written),
              bits(idle[i].value.bytes_written));
    EXPECT_EQ(bits(busy.confidence), bits(idle[i].confidence));
  }
  EXPECT_EQ(idle[0].source, core::PredictionSource::kNeuralNet);
}

TEST(PredictionService, BackpressureShedsToFallbackChain) {
  serve::ServiceOptions options = tiny_service();
  options.batching.queue_capacity = 2;
  options.batching.max_batch = 64;
  options.batching.max_delay_us = 200000;  // park the batcher coalescing
  serve::PredictionService service(options);

  const auto jobs = tiny_jobs(16);
  std::vector<std::future<core::ProvenancedPrediction>> futures;
  futures.reserve(jobs.size());
  for (const auto& job : jobs) futures.push_back(service.submit(job));
  for (auto& f : futures) {
    const auto prediction = f.get();
    // Untrained service: everything resolves via the fallback chain.
    EXPECT_NE(prediction.source, core::PredictionSource::kNeuralNet);
    EXPECT_GE(prediction.value.runtime_minutes, 1.0);
  }
  const auto stats = service.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_LE(stats.max_queue_depth, 2u);
}

TEST(PredictionService, GuardRejectionKeepsLastGoodModelAndBenches) {
  serve::ServiceOptions options = tiny_service();
  options.background_retrain = false;
  // Unreachable: every retrain fails.
  options.guards.min_holdback_accuracy = 1.1;
  options.guards.holdback_size = 4;
  options.guards.max_consecutive_rejections = 2;
  serve::PredictionService service(options);

  const auto jobs = tiny_jobs(30);
  for (const auto& job : jobs) service.complete(job);
  EXPECT_FALSE(service.retrain_now());
  EXPECT_FALSE(service.retrain_now());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_retrains, 2u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_TRUE(stats.nn_benched);
  EXPECT_EQ(service.training_events(), 0u);

  // Benched != broken: submissions still get answers.
  const auto prediction = service.predict_now(jobs[0]);
  EXPECT_NE(prediction.source, core::PredictionSource::kNeuralNet);
  EXPECT_GE(prediction.value.runtime_minutes, 1.0);
}

TEST(PredictionService, RetrainNowRequiresManualMode) {
  serve::ServiceOptions options = tiny_service();
  options.background_retrain = true;
  serve::PredictionService service(options);
  EXPECT_THROW(service.retrain_now(), std::logic_error);
}

TEST(ServingSession, ConcurrentReplayServesEveryJob) {
  const auto jobs = tiny_jobs(60);
  serve::SessionOptions options;
  options.service = tiny_service();
  options.service.protocol.min_initial_completions = 10;
  options.service.protocol.retrain_interval = 15;
  options.mode = serve::ReplayMode::kConcurrent;
  serve::ServingSession session(options);
  const auto result = session.replay(jobs);

  ASSERT_EQ(result.predictions.size(), jobs.size());
  for (const auto& p : result.predictions) {
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(p->value.runtime_minutes, 1.0);
  }
  EXPECT_EQ(result.stats.served, result.stats.submitted);
}

// ------------------------------------------------------------ timings -----

TEST(ServingSession, RetrainTimeIsPartOfReplayTime) {
  const auto jobs = tiny_jobs(40);
  serve::SessionOptions options;
  options.service = tiny_service();
  options.service.protocol.min_initial_completions = 10;
  options.service.protocol.retrain_interval = 15;
  const auto result = serve::ServingSession(options).replay(jobs);
  ASSERT_GE(result.training_events, 1u);
  EXPECT_GT(result.retrain_ns, 0u);
  EXPECT_LT(result.retrain_ns, result.replay_ns);
}

// ------------------------------------------ one batch predict path -------

TEST(Predictor, BatchedPredictionEqualsSingleItemWrappers) {
  const auto jobs = tiny_jobs(40);
  core::PrionnPredictor predictor{tiny_predictor()};
  predictor.train(jobs);

  std::vector<std::string> scripts;
  for (std::size_t i = 0; i < 10; ++i) scripts.push_back(jobs[i].script);
  const auto batched = predictor.predict_batch(scripts);
  ASSERT_EQ(batched.size(), scripts.size());
  // One batch of N equals N batches of one.
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    const auto single =
        predictor.predict_batch(std::span<const std::string>(&scripts[i], 1))
            .front();
    EXPECT_EQ(batched[i].value.runtime_minutes,
              single.value.runtime_minutes);
    EXPECT_EQ(batched[i].value.bytes_read, single.value.bytes_read);
    EXPECT_EQ(batched[i].value.bytes_written, single.value.bytes_written);
    EXPECT_EQ(batched[i].runtime_confidence, single.runtime_confidence);
    EXPECT_EQ(batched[i].read_confidence, single.read_confidence);
    EXPECT_EQ(batched[i].write_confidence, single.write_confidence);
    EXPECT_GT(batched[i].runtime_confidence, 0.0);
    EXPECT_LE(batched[i].runtime_confidence, 1.0);
  }
}
