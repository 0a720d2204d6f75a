// IO-burst forecasting (phase 2 of the paper): run PRIONN's predictions
// through the cluster simulator, build the predicted system-IO timeline,
// flag bursts, and score them against the actual timeline — everything an
// IO-aware scheduler needs to avoid co-scheduling IO-heavy jobs.
//
//   ./build/examples/io_burst_forecast [jobs] [epochs]
#include <cstdio>
#include <cstdlib>

#include "core/pipeline.hpp"
#include "core/serve/serving_session.hpp"
#include "util/stats.hpp"

#include "trace/workload.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const std::size_t n_jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1000;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 6;

  // --- Phase 1: per-job runtime + IO predictions. ---------------------
  std::printf("phase 1: training PRIONN online over %zu jobs...\n", n_jobs);
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(n_jobs));
  const auto jobs = trace::completed_jobs(generator.generate());

  core::serve::SessionOptions options;
  options.service.predictor.image.transform = core::Transform::kWord2Vec;
  options.service.predictor.epochs = epochs;
  options.service.predictor.predict_io = true;
  const auto online = core::serve::ServingSession(options).replay(jobs);
  const auto nn = online.nn_predictions();

  std::vector<core::JobPrediction> predictions(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (nn[i]) {
      predictions[i] = *nn[i];
    } else {
      predictions[i].runtime_minutes = jobs[i].requested_minutes;
      predictions[i].bytes_read = predictions[i].bytes_written = 1e6;
    }
  }
  std::printf("  %zu training events, %.0fs\n", online.training_events,
              static_cast<double>(online.retrain_ns) / 1e9);

  // --- Phase 2: snapshot turnaround + system IO forecast. -------------
  std::printf("phase 2: simulating the cluster and forecasting IO...\n");
  core::Phase2Options p2;
  p2.cluster.total_nodes = 1296;
  const auto turnaround = core::evaluate_turnaround(jobs, predictions, p2);

  const auto actual = core::actual_io_intervals(jobs, turnaround.schedule);
  const auto predicted = core::predicted_io_intervals_predicted(
      jobs, turnaround.predicted_prionn, predictions);
  const auto io = core::evaluate_system_io(actual, predicted, p2);

  std::printf("\nsystem IO timeline: %zu active minutes, burst threshold "
              "%.3e B/s (mean + 1 sigma)\n",
              io.accuracies.size(), io.burst_threshold);
  std::printf("system-IO prediction accuracy: mean %.1f%%, median %.1f%%\n",
              100.0 * util::mean(io.accuracies),
              100.0 * util::median(io.accuracies));

  std::printf("\nIO-burst forecast quality by tolerance window:\n");
  std::printf("%-14s %-13s %-11s\n", "window (min)", "sensitivity",
              "precision");
  for (const auto& w : io.windows)
    std::printf("%8zu %13.1f%% %10.1f%%\n", w.window_minutes,
                100.0 * w.score.sensitivity(), 100.0 * w.score.precision());

  std::printf("\nan IO-aware scheduler can now delay IO-heavy queued jobs "
              "whenever the forecast flags a burst window\n");
  return 0;
}
