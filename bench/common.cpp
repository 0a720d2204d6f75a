#include "bench/common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/online.hpp"
#include "core/serve/serving_session.hpp"
#include "ml/random_forest.hpp"
#include "obs/obs.hpp"
#include "trace/features.hpp"
#include "trace/store.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace prionn::bench {

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  // Single-threaded bench startup; no concurrent setenv anywhere in-tree.
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return v ? static_cast<std::size_t>(std::atoll(v)) : fallback;
}

}  // namespace

BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  args.jobs = env_or("PRIONN_BENCH_JOBS", 0);
  args.epochs = env_or("PRIONN_BENCH_EPOCHS", 0);
  args.seed = env_or("PRIONN_BENCH_SEED", 2016);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      args.jobs = static_cast<std::size_t>(std::atoll(arg.c_str() + 7));
    else if (arg.rfind("--epochs=", 0) == 0)
      args.epochs = static_cast<std::size_t>(std::atoll(arg.c_str() + 9));
    else if (arg.rfind("--seed=", 0) == 0)
      args.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
  }
  return args;
}

void print_banner(const std::string& experiment, const std::string& title,
                  const std::string& paper_claim, const std::string& scale) {
  std::printf("=========================================================\n");
  std::printf("PRIONN reproduction | %s\n", experiment.c_str());
  std::printf("%s\n", title.c_str());
  std::printf("paper reports: %s\n", paper_claim.c_str());
  std::printf("this run:      %s\n", scale.c_str());
  std::printf("=========================================================\n");
}

std::vector<std::size_t> SharedRun::predicted_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i]) out.push_back(i);
  return out;
}

std::vector<core::JobPrediction> SharedRun::dense_predictions() const {
  std::vector<core::JobPrediction> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (predictions[i]) {
      out[i] = *predictions[i];
    } else {
      out[i].runtime_minutes = jobs[i].requested_minutes;
      out[i].bytes_read = 1e6;
      out[i].bytes_written = 1e6;
    }
  }
  return out;
}

SharedRun shared_run(std::size_t n_jobs, std::size_t epochs,
                     std::uint64_t seed, const std::string& cache_dir) {
  namespace fs = std::filesystem;
  std::ostringstream key;
  key << "phase1_j" << n_jobs << "_e" << epochs << "_s" << seed;
  const fs::path trace_path = fs::path(cache_dir) / (key.str() + ".trace");
  const fs::path pred_path = fs::path(cache_dir) / (key.str() + ".pred");

  SharedRun run;
  if (fs::exists(trace_path) && fs::exists(pred_path)) {
    run.jobs = trace::load_trace_file(trace_path.string());
    std::ifstream is(pred_path);
    run.predictions.resize(run.jobs.size());
    std::size_t count = 0;
    is >> count;
    for (std::size_t k = 0; k < count; ++k) {
      std::size_t idx = 0;
      core::JobPrediction p;
      is >> idx >> p.runtime_minutes >> p.bytes_read >> p.bytes_written;
      if (is && idx < run.predictions.size()) run.predictions[idx] = p;
    }
    std::printf("[cache] loaded phase-1 run from %s (%zu jobs, %zu "
                "predictions)\n",
                trace_path.string().c_str(), run.jobs.size(), count);
    return run;
  }

  std::printf("[cache] building phase-1 run (%zu jobs, %zu epochs) — this "
              "is the expensive step, later benches reuse it\n",
              n_jobs, epochs);
  util::Timer timer;
  trace::WorkloadGenerator gen(trace::WorkloadOptions::cab(n_jobs, seed));
  run.jobs = trace::completed_jobs(gen.generate());

  core::serve::SessionOptions options;
  core::PredictorOptions& predictor = options.service.predictor;
  predictor.image.transform = core::Transform::kWord2Vec;
  predictor.model = core::ModelKind::kCnn2d;
  predictor.preset = core::ModelPreset::kFast;
  predictor.epochs = epochs;
  predictor.predict_io = true;
  core::serve::ServingSession session(options);
  const auto result = session.replay(run.jobs);
  run.predictions = result.nn_predictions();
  std::printf("[cache] phase-1 run complete in %.1fs (%zu training "
              "events, mean batch %.1f, %llu encoding-cache hits)\n",
              timer.seconds(), result.training_events,
              result.stats.mean_batch_size(),
              static_cast<unsigned long long>(result.stats.cache_hits));

  fs::create_directories(cache_dir);
  trace::save_trace_file(trace_path.string(), run.jobs);
  std::ofstream os(pred_path);
  os.precision(17);
  const auto idx = run.predicted_indices();
  os << idx.size() << "\n";
  for (const std::size_t i : idx) {
    const auto& p = *run.predictions[i];
    os << i << " " << p.runtime_minutes << " " << p.bytes_read << " "
       << p.bytes_written << "\n";
  }
  return run;
}

std::vector<sched::ScheduledJob> simulate_schedule(
    const std::vector<trace::JobRecord>& jobs, std::uint32_t nodes) {
  std::vector<sched::SimJob> sim_jobs;
  sim_jobs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sched::SimJob s;
    s.id = i;
    s.submit_time = jobs[i].submit_time;
    s.nodes = std::max<std::uint32_t>(1, jobs[i].requested_nodes);
    s.runtime = jobs[i].runtime_minutes * 60.0;
    s.believed_runtime = jobs[i].requested_minutes * 60.0;
    sim_jobs.push_back(s);
  }
  sched::ClusterSimulator sim({nodes});
  return sim.run(sim_jobs);
}

std::vector<std::optional<double>> online_random_forest(
    const std::vector<trace::JobRecord>& jobs,
    const std::function<double(const trace::JobRecord&)>& target,
    std::size_t retrain_interval, std::size_t train_window) {
  std::vector<std::optional<double>> predictions(jobs.size());

  // The same completion feed and cadence as the NN replays.
  core::OnlineProtocolOptions protocol;
  protocol.retrain_interval = retrain_interval;
  protocol.train_window = train_window;
  protocol.min_initial_completions = retrain_interval;
  core::CompletionFeed feed(jobs);
  core::RetrainCadence cadence(protocol);

  trace::FeatureEncoder encoder;
  std::optional<ml::RandomForestRegressor> forest;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    feed.advance(jobs[i].submit_time);
    if (cadence.due(feed.completed().size())) {
      cadence.start_attempt();
      const auto window = feed.recent(train_window);
      ml::Dataset data(trace::ScriptFeatures::kCount);
      data.reserve(window.size());
      for (const auto& job : window) {
        const auto row = encoder.encode(trace::parse_script(job.script));
        data.add_row(std::span<const double>(row.data(), row.size()),
                     target(job));
      }
      forest.emplace();
      forest->fit(data);
      cadence.finish_attempt(true);
    }
    if (forest) {
      const auto row = encoder.encode(trace::parse_script(jobs[i].script));
      predictions[i] =
          forest->predict(std::span<const double>(row.data(), row.size()));
    }
    cadence.count_submission();
    feed.submit(i);
  }
  return predictions;
}

void export_telemetry(const std::string& stem) {
  obs::export_telemetry_files(stem);
  std::printf("\ntelemetry: %s.prom / %s.{metrics,events,trace}.jsonl\n",
              stem.c_str(), stem.c_str());
}

std::string accuracy_row(const std::vector<double>& accuracies) {
  const auto s = util::boxplot_summary(accuracies);
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean %5.1f%% | median %5.1f%% | q1 %5.1f%% | q3 %5.1f%% | "
                "n=%zu",
                100.0 * s.mean, 100.0 * s.median, 100.0 * s.q1,
                100.0 * s.q3, s.count);
  os << buf;
  return os.str();
}

}  // namespace prionn::bench
