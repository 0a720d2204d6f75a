// End-to-end integration: generate a workload, run the full phase-1 online
// protocol with the paper's chosen configuration (word2vec + 2D-CNN) at
// reduced scale, feed the predictions into phase 2, and validate the whole
// chain produces sane, paper-shaped outputs.
//
// The expensive online protocol runs once; all assertions live in a single
// test so ctest does not re-run the fixture per test process.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/serve/serving_session.hpp"
#include "ml/random_forest.hpp"
#include "trace/features.hpp"
#include "trace/stats.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace core = prionn::core;
namespace tr = prionn::trace;
using prionn::util::mean;
using prionn::util::relative_accuracy;

TEST(EndToEnd, FullPipelineReproducesPaperShape) {
  // ---- Phase 0: synthetic Cab-like workload. -------------------------
  tr::WorkloadGenerator gen(tr::WorkloadOptions::cab(700, 77));
  const auto jobs = tr::completed_jobs(gen.generate());
  const auto stats = tr::summarize(jobs);
  EXPECT_GT(stats.runtime_minutes.mean, 15.0);
  EXPECT_LT(stats.runtime_minutes.mean, 90.0);
  EXPECT_GT(stats.read_bandwidth.mean, stats.read_bandwidth.median);

  // ---- Phase 1: online protocol (word2vec + 2D-CNN). -----------------
  core::serve::SessionOptions opts;
  opts.service.predictor.image.transform = core::Transform::kWord2Vec;
  opts.service.predictor.model = core::ModelKind::kCnn2d;
  opts.service.predictor.preset = core::ModelPreset::kFast;
  opts.service.predictor.epochs = 8;
  opts.service.protocol.retrain_interval = 100;
  opts.service.protocol.train_window = 300;
  opts.service.protocol.min_initial_completions = 80;
  const auto online = core::serve::ServingSession(opts).replay(jobs);
  const auto nn = online.nn_predictions();

  EXPECT_GE(online.training_events, 3u);
  std::vector<std::size_t> predicted;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (nn[i]) predicted.push_back(i);
  ASSERT_GT(predicted.size(), jobs.size() / 2);
  EXPECT_FALSE(nn[0].has_value());  // cold start

  std::vector<core::JobPrediction> predictions(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (nn[i]) {
      predictions[i] = *nn[i];
    } else {
      // Cold-start fallback: what a deployment would use before the first
      // training event.
      predictions[i].runtime_minutes = jobs[i].requested_minutes;
      predictions[i].bytes_read = 1e6;
      predictions[i].bytes_written = 1e6;
    }
  }

  // PRIONN beats the user baseline on runtime accuracy (Fig. 8b shape).
  std::vector<double> prionn_acc, user_acc;
  for (const std::size_t i : predicted) {
    prionn_acc.push_back(relative_accuracy(jobs[i].runtime_minutes,
                                           predictions[i].runtime_minutes));
    user_acc.push_back(relative_accuracy(jobs[i].runtime_minutes,
                                         jobs[i].requested_minutes));
  }
  EXPECT_GT(mean(prionn_acc), mean(user_acc) + 0.05);
  EXPECT_GT(mean(prionn_acc), 0.4);

  // RF baseline on the Table-1 features (train on first half, score on
  // predicted indices of the second half). At this tiny scale PRIONN is
  // still warming up, so only require it to be in RF's neighbourhood —
  // the full-scale comparison is bench/fig08_runtime_accuracy's job.
  {
    tr::FeatureEncoder enc;
    const std::size_t half = jobs.size() / 2;
    const std::vector<tr::JobRecord> train(
        jobs.begin(), jobs.begin() + static_cast<long>(half));
    auto train_data = enc.encode_jobs(
        train, [](const tr::JobRecord& j) { return j.runtime_minutes; });
    prionn::ml::RandomForestRegressor rf;
    rf.fit(train_data);
    std::vector<double> rf_acc, prionn_late;
    for (const std::size_t i : predicted) {
      if (i < half) continue;
      const auto row = enc.encode(tr::parse_script(jobs[i].script));
      rf_acc.push_back(relative_accuracy(
          jobs[i].runtime_minutes,
          rf.predict(std::span<const double>(row.data(), row.size()))));
      prionn_late.push_back(relative_accuracy(
          jobs[i].runtime_minutes, predictions[i].runtime_minutes));
    }
    ASSERT_GT(rf_acc.size(), 50u);
    EXPECT_GT(mean(prionn_late), mean(rf_acc) - 0.3);
    EXPECT_GT(mean(rf_acc), mean(user_acc));  // RF also beats users
  }

  // ---- Phase 2: turnaround via snapshot replay (section 4.2). --------
  core::Phase2Options p2;
  p2.cluster.total_nodes = 1296;
  const auto eval = core::evaluate_turnaround(jobs, predictions, p2);
  ASSERT_EQ(eval.schedule.size(), jobs.size());

  std::vector<double> ta_user, ta_prionn;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (eval.simulated[i] <= 0.0) continue;
    ta_user.push_back(
        relative_accuracy(eval.simulated[i], eval.predicted_user[i]));
    ta_prionn.push_back(
        relative_accuracy(eval.simulated[i], eval.predicted_prionn[i]));
  }
  for (const double a : ta_prionn) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_GE(mean(ta_prionn), mean(ta_user) - 0.02);  // Fig. 11b ordering

  // ---- Phase 2: system IO + bursts (section 4.3). --------------------
  const auto actual = core::actual_io_intervals(jobs, eval.schedule);

  // Evaluation 1: perfect turnaround, predicted IO (Figs. 12/13).
  const auto pred_perfect =
      core::predicted_io_intervals_perfect(jobs, eval.schedule, predictions);
  const auto io1 = core::evaluate_system_io(actual, pred_perfect, p2);
  EXPECT_GT(io1.accuracies.size(), 100u);
  EXPECT_GT(io1.burst_threshold, 0.0);
  EXPECT_GT(mean(io1.accuracies), 0.2);
  EXPECT_LE(mean(io1.accuracies), 1.0);
  ASSERT_FALSE(io1.windows.empty());
  for (std::size_t w = 1; w < io1.windows.size(); ++w)
    EXPECT_GE(io1.windows[w].score.sensitivity(),
              io1.windows[w - 1].score.sensitivity() - 1e-9);

  // Evaluation 2: predicted turnaround (Figs. 14/15).
  const auto pred_predicted = core::predicted_io_intervals_predicted(
      jobs, eval.predicted_prionn, predictions);
  const auto io2 = core::evaluate_system_io(actual, pred_predicted, p2);
  EXPECT_FALSE(io2.accuracies.empty());
  for (const auto& w : io2.windows) {
    EXPECT_GE(w.score.sensitivity(), 0.0);
    EXPECT_LE(w.score.precision(), 1.0);
  }
}
