// Fig. 7: distribution of relative accuracy for runtime predictions per
// deep model with the word2vec mapping. Paper shape: NN and 2D-CNN give
// the highest accuracy, the 1D-CNN is clearly behind.
#include <cstdio>

#include "bench/common.hpp"
#include "core/serve/serving_session.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace prionn;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t n_jobs = args.jobs ? args.jobs : 600;
  const std::size_t epochs = args.epochs ? args.epochs : 6;

  bench::print_banner(
      "Fig. 7",
      "Runtime relative-accuracy distribution per deep model (word2vec)",
      "NN and 2D-CNN best and comparable; 1D-CNN behind",
      std::to_string(n_jobs) + " jobs through the online protocol, " +
          std::to_string(epochs) + " epochs per retraining");

  trace::WorkloadGenerator gen(
      trace::WorkloadOptions::cab(n_jobs + n_jobs / 8, args.seed));
  auto jobs = trace::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), n_jobs));

  util::Table table({"model", "accuracy distribution"});
  const core::ModelKind kinds[] = {core::ModelKind::kFullyConnected,
                                   core::ModelKind::kCnn1d,
                                   core::ModelKind::kCnn2d};
  for (const auto kind : kinds) {
    core::serve::SessionOptions opts;
    opts.service.predictor.image.transform = core::Transform::kWord2Vec;
    opts.service.predictor.model = kind;
    opts.service.predictor.epochs = epochs;
    opts.service.predictor.predict_io = false;
    const auto result = core::serve::ServingSession(opts).replay(jobs);
    const auto predictions = result.nn_predictions();
    std::vector<double> acc;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (predictions[i])
        acc.push_back(util::relative_accuracy(
            jobs[i].runtime_minutes, predictions[i]->runtime_minutes));
    table.add_row({std::string(core::model_name(kind)),
                   bench::accuracy_row(acc)});
    std::printf("  done: %-7s (%zu retrainings, %.0fs training)\n",
                std::string(core::model_name(kind)).c_str(),
                result.training_events,
                static_cast<double>(result.retrain_ns) / 1e9);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: 2D-CNN ~ NN > 1D-CNN\n");
  return 0;
}
