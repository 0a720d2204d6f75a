// Fig. 5: distribution of relative accuracy for runtime predictions, per
// transform type, with the 2D-CNN under the online protocol. Paper shape:
// word2vec gives the best accuracy distribution.
#include <cstdio>

#include "bench/common.hpp"
#include "core/serve/serving_session.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t n_jobs = args.jobs ? args.jobs : 500;
  const std::size_t epochs = args.epochs ? args.epochs : 5;

  bench::print_banner(
      "Fig. 5",
      "Runtime relative-accuracy distribution per transform (2D-CNN)",
      "word2vec best, followed by simple/one-hot; binary worst",
      std::to_string(n_jobs) + " jobs through the online protocol, " +
          std::to_string(epochs) + " epochs per retraining");

  trace::WorkloadGenerator gen(
      trace::WorkloadOptions::cab(n_jobs + n_jobs / 8, args.seed));
  auto jobs = trace::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), n_jobs));

  util::Table table({"transform", "accuracy distribution"});
  const core::Transform transforms[] = {
      core::Transform::kBinary, core::Transform::kSimple,
      core::Transform::kOneHot, core::Transform::kWord2Vec};
  for (const auto t : transforms) {
    core::serve::SessionOptions opts;
    opts.service.predictor.image.transform = t;
    opts.service.predictor.model = core::ModelKind::kCnn2d;
    opts.service.predictor.epochs = epochs;
    opts.service.predictor.predict_io = false;
    opts.service.protocol.train_window = 400;
    const auto result = core::serve::ServingSession(opts).replay(jobs);
    const auto predictions = result.nn_predictions();
    std::vector<double> acc;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (predictions[i])
        acc.push_back(util::relative_accuracy(
            jobs[i].runtime_minutes, predictions[i]->runtime_minutes));
    table.add_row({std::string(core::transform_name(t)),
                   bench::accuracy_row(acc)});
    std::printf("  done: %-9s (%zu retrainings, %.0fs training)\n",
                std::string(core::transform_name(t)).c_str(),
                result.training_events,
                static_cast<double>(result.retrain_ns) / 1e9);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: word2vec has the highest mean/median\n");
  return 0;
}
