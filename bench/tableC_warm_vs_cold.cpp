// Ablation (paper section 2.3, narrative): warm-start retraining. The
// paper trains on only 500 jobs per event and argues this works because
// "models are retrained rather than re-initialized ... knowledge is
// retained across several training events". This bench runs the online
// protocol twice — warm-started vs re-initialised before every retraining
// — and compares runtime accuracy over the stream.
#include <cstdio>

#include "bench/common.hpp"
#include "core/serve/serving_session.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace prionn;

namespace {

std::vector<double> run_protocol(const std::vector<trace::JobRecord>& jobs,
                                 std::size_t epochs, bool reinitialize) {
  core::serve::SessionOptions opts;
  opts.service.predictor.image.transform = core::Transform::kWord2Vec;
  opts.service.predictor.epochs = epochs;
  opts.service.predictor.predict_io = false;
  opts.service.reinitialize_on_retrain = reinitialize;
  const auto predictions =
      core::serve::ServingSession(opts).replay(jobs).nn_predictions();
  std::vector<double> acc;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (predictions[i])
      acc.push_back(util::relative_accuracy(jobs[i].runtime_minutes,
                                            predictions[i]->runtime_minutes));
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t n_jobs = args.jobs ? args.jobs : 900;
  const std::size_t epochs = args.epochs ? args.epochs : 6;

  bench::print_banner(
      "Table C (ablation, section 2.3)",
      "Warm-start vs cold-restart retraining in the online protocol",
      "knowledge retained across training events makes the 500-job "
      "window sufficient (warm >> cold)",
      std::to_string(n_jobs) + " jobs, " + std::to_string(epochs) +
          " epochs per retraining");

  trace::WorkloadGenerator gen(
      trace::WorkloadOptions::cab(n_jobs + n_jobs / 8, args.seed));
  auto jobs = trace::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), n_jobs));

  const auto warm = run_protocol(jobs, epochs, /*reinitialize=*/false);
  std::printf("  warm-start pass done\n");
  const auto cold = run_protocol(jobs, epochs, /*reinitialize=*/true);
  std::printf("  cold-restart pass done\n");

  util::Table table({"retraining", "runtime accuracy distribution"});
  table.add_row({"warm start (paper)", bench::accuracy_row(warm)});
  table.add_row({"re-initialised", bench::accuracy_row(cold)});
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: warm start clearly above re-initialised "
              "at equal per-event epochs\n");
  return 0;
}
