#include "core/serve/serving_session.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace prionn::core::serve {

std::vector<std::optional<JobPrediction>> SessionResult::nn_predictions()
    const {
  std::vector<std::optional<JobPrediction>> out(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i].source == PredictionSource::kNeuralNet)
      out[i] = predictions[i].value;
  return out;
}

ServingSession::ServingSession(SessionOptions options)
    : options_(std::move(options)) {
  // The mode owns the retrain policy: deterministic replay drives
  // training itself, concurrent replay delegates to the service.
  options_.service.background_retrain =
      options_.mode == ReplayMode::kConcurrent;
  service_ = std::make_unique<PredictionService>(options_.service);
}

SessionResult ServingSession::replay(
    const std::vector<trace::JobRecord>& jobs) {
  PRIONN_OBS_SPAN("serve.replay");
  const std::uint64_t t0 = util::Timer::now_ns();
  SessionResult result;

  std::vector<std::future<ProvenancedPrediction>> futures;
  futures.reserve(jobs.size());

  // The service sees completions in the identical order the sequential
  // replays would.
  CompletionFeed feed(jobs);
  const bool deterministic = options_.mode == ReplayMode::kDeterministic;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    const std::size_t moved = feed.advance(job.submit_time);
    const auto& completed = feed.completed();
    for (std::size_t k = completed.size() - moved; k < completed.size(); ++k)
      service_->complete(jobs[completed[k]]);

    // Deterministic replay retrains at exactly the submissions where the
    // sequential trainers would, with a flush() barrier first so every
    // outstanding request is served by the pre-retrain model.
    if (deterministic && service_->retrain_due()) {
      service_->flush();
      service_->retrain_now();
    }

    futures.push_back(service_->submit(job));
    feed.submit(i);
  }

  service_->flush();
  result.predictions.reserve(futures.size());
  for (auto& f : futures) result.predictions.push_back(f.get());
  result.training_events = service_->training_events();
  result.stats = service_->stats();
  result.replay_ns = util::Timer::now_ns() - t0;
  return result;
}

}  // namespace prionn::core::serve
