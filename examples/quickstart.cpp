// Quickstart: generate a small synthetic Cab-like trace, run PRIONN's
// online training protocol over it, and report runtime/IO prediction
// accuracy for the last job plus aggregate statistics.
//
// Build & run:
//   cmake --build build && ./build/examples/quickstart [jobs]
#include <cstdio>
#include <cstdlib>

#include "core/serve/serving_session.hpp"
#include "trace/stats.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const std::size_t n_jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 3000;

  // 1. Synthesize a workload (stand-in for the proprietary Cab trace).
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(n_jobs));
  const auto all_jobs = generator.generate();
  const auto jobs = trace::completed_jobs(all_jobs);
  const auto summary = trace::summarize(all_jobs);
  std::printf("trace: %zu jobs (%zu canceled), %zu unique scripts\n",
              summary.total_jobs, summary.canceled_jobs,
              summary.unique_scripts);
  std::printf("runtime: mean %.1f min, median %.1f min\n",
              summary.runtime_minutes.mean, summary.runtime_minutes.median);
  std::printf("user request: mean error %.0f min, relative accuracy %.1f%%\n",
              summary.user_request_mean_error_minutes,
              100.0 * summary.user_request_mean_relative_accuracy);

  // 2. Run the online protocol: predict at submission, retrain every 100
  //    submissions on the 500 most recent completions (warm start). The
  //    deterministic session retrains at exactly those submissions.
  core::serve::SessionOptions options;
  options.service.predictor.image.transform = core::Transform::kWord2Vec;
  options.service.predictor.model = core::ModelKind::kCnn2d;
  options.service.predictor.preset = core::ModelPreset::kFast;
  options.service.predictor.epochs = 6;
  core::serve::ServingSession session(options);
  const auto result = session.replay(jobs);
  const double replay_s = static_cast<double>(result.replay_ns) / 1e9;
  const double retrain_s = static_cast<double>(result.retrain_ns) / 1e9;
  std::printf("\nonline protocol: %zu training events, %.1fs training, "
              "%.1fs serving\n",
              result.training_events, retrain_s, replay_s - retrain_s);

  // 3. Score the neural net's runtime and IO predictions with the paper's
  //    relative accuracy (the fallback chain answers before the first
  //    training event).
  const auto predictions = result.nn_predictions();
  std::vector<double> runtime_acc, read_acc, write_acc;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!predictions[i]) continue;
    const auto& p = *predictions[i];
    runtime_acc.push_back(
        util::relative_accuracy(jobs[i].runtime_minutes, p.runtime_minutes));
    read_acc.push_back(util::relative_accuracy(jobs[i].read_bandwidth(),
                                               p.read_bandwidth()));
    write_acc.push_back(util::relative_accuracy(jobs[i].write_bandwidth(),
                                                p.write_bandwidth()));
  }
  std::printf("predicted jobs: %zu\n", runtime_acc.size());
  std::printf("runtime accuracy:   mean %.1f%%, median %.1f%%\n",
              100.0 * util::mean(runtime_acc),
              100.0 * util::median(runtime_acc));
  std::printf("read bw accuracy:   mean %.1f%%, median %.1f%%\n",
              100.0 * util::mean(read_acc), 100.0 * util::median(read_acc));
  std::printf("write bw accuracy:  mean %.1f%%, median %.1f%%\n",
              100.0 * util::mean(write_acc), 100.0 * util::median(write_acc));

  // 4. Keep serving: the session's service answers new submissions with
  //    the model the replay left live, with provenance and the runtime
  //    head's confidence.
  std::printf("\n");
  for (std::size_t i = jobs.size() - 3; i < jobs.size(); ++i) {
    const auto p = session.service().predict_now(jobs[i]);
    std::printf("job %s: actual %.0f min, predicted %.0f min by the %s "
                "(confidence %.2f)\n",
                jobs[i].job_name.c_str(), jobs[i].runtime_minutes,
                p.value.runtime_minutes, core::prediction_source_name(p.source),
                p.confidence);
  }
  return 0;
}
