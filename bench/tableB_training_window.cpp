// Ablation (paper section 2.3, narrative): training-set size sweep. The
// paper evaluated windows from 50 to 5,000 jobs and found "minor
// improvement of prediction accuracy and higher cost to train beyond 500
// jobs". This bench trains the 2D-CNN once per window size and reports
// hold-out accuracy and training time.
#include <cstdio>

#include "bench/common.hpp"
#include "core/predictor.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t epochs = args.epochs ? args.epochs : 12;
  const std::vector<std::size_t> windows = {50, 100, 250, 500, 1000};
  const std::size_t holdout = 200;

  bench::print_banner(
      "Table B (ablation, section 2.3)",
      "Training-window sweep for the 2D-CNN (paper tested 50 - 5,000)",
      "minor accuracy gains but higher cost beyond 500 training jobs",
      "windows {50,100,250,500,1000}, " + std::to_string(epochs) +
          " epochs, 200 hold-out jobs");

  const std::size_t total = windows.back() + holdout;
  trace::WorkloadGenerator gen(
      trace::WorkloadOptions::cab(total + total / 8, args.seed));
  auto jobs = trace::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), total));
  const std::size_t test_begin = jobs.size() - holdout;

  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < test_begin; ++i)
    corpus.push_back(jobs[i].script);

  util::Table table({"train jobs", "train seconds", "mean accuracy",
                     "median accuracy"});
  for (const std::size_t window : windows) {
    core::PredictorOptions opts;
    opts.image.transform = core::Transform::kWord2Vec;
    opts.epochs = epochs;
    opts.predict_io = false;
    core::PrionnPredictor predictor(opts);
    predictor.fit_embedding(corpus);

    // The most recent `window` completions before the hold-out region.
    std::vector<trace::JobRecord> train(
        jobs.begin() + static_cast<long>(test_begin - window),
        jobs.begin() + static_cast<long>(test_begin));
    util::Timer timer;
    predictor.train(train);
    const double seconds = timer.seconds();

    std::vector<std::string> scripts;
    for (std::size_t i = test_begin; i < jobs.size(); ++i)
      scripts.push_back(jobs[i].script);
    const auto preds = predictor.predict_batch(scripts);
    std::vector<double> acc;
    for (std::size_t k = 0; k < preds.size(); ++k)
      acc.push_back(util::relative_accuracy(
          jobs[test_begin + k].runtime_minutes,
          preds[k].value.runtime_minutes));
    table.add_row({std::to_string(window), util::fmt(seconds, 2),
                   util::fmt(100.0 * util::mean(acc), 1) + "%",
                   util::fmt(100.0 * util::median(acc), 1) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: accuracy rises steeply up to ~500 train "
              "jobs then flattens while cost keeps growing\n");
  return 0;
}
