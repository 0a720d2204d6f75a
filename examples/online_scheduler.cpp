// Online scheduler integration (phase 1 of the paper): stream a synthetic
// job queue through PRIONN's online protocol and report how prediction
// accuracy evolves as the model retrains, the way a production scheduler
// would observe it.
//
//   ./build/examples/online_scheduler [jobs] [epochs]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/serve/serving_session.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const std::size_t n_jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1200;
  const std::size_t epochs =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;

  std::printf("generating %zu-job Cab-like workload...\n", n_jobs);
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(n_jobs));
  const auto jobs = trace::completed_jobs(generator.generate());

  core::serve::SessionOptions options;
  options.service.predictor.image.transform = core::Transform::kWord2Vec;
  options.service.predictor.model = core::ModelKind::kCnn2d;
  options.service.predictor.epochs = epochs;
  options.service.predictor.predict_io = false;
  std::printf("online protocol: retrain every %zu submissions on the %zu "
              "most recent completions, %zu epochs, warm start\n\n",
              options.service.protocol.retrain_interval,
              options.service.protocol.train_window, epochs);

  core::serve::ServingSession session(options);
  const auto result = session.replay(jobs);
  const auto predictions = result.nn_predictions();

  // Accuracy per 100-submission block: the operator's view of the model
  // improving as it retrains.
  std::printf("%-18s %-16s %-16s\n", "submission block",
              "PRIONN accuracy", "user accuracy");
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (predictions[i]) idx.push_back(i);
  std::size_t block_start = idx.empty() ? 0 : idx.front();
  std::vector<double> block_prionn, block_user;
  const auto flush_block = [&](std::size_t end) {
    if (block_prionn.empty()) return;
    std::printf("%6zu - %-8zu %8.1f%% %15.1f%%\n", block_start, end,
                100.0 * util::mean(block_prionn),
                100.0 * util::mean(block_user));
    block_prionn.clear();
    block_user.clear();
    block_start = end + 1;
  };
  for (const std::size_t i : idx) {
    if (i >= block_start + 200) flush_block(i - 1);
    const auto& p = *predictions[i];
    block_prionn.push_back(util::relative_accuracy(jobs[i].runtime_minutes,
                                                   p.runtime_minutes));
    block_user.push_back(util::relative_accuracy(jobs[i].runtime_minutes,
                                                 jobs[i].requested_minutes));
  }
  flush_block(jobs.size() - 1);

  const double retrain_s = static_cast<double>(result.retrain_ns) / 1e9;
  const double serve_s =
      static_cast<double>(result.replay_ns) / 1e9 - retrain_s;
  std::printf("\n%zu training events, %.1fs total training, %.2fms mean "
              "serving time per job (mean batch %.1f)\n",
              result.training_events, retrain_s,
              1e3 * serve_s / static_cast<double>(jobs.size()),
              result.stats.mean_batch_size());
  std::printf("steady-state accuracy is what an IO-aware scheduler would "
              "consume (see examples/io_burst_forecast for phase 2)\n");
  return 0;
}
