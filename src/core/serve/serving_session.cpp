#include "core/serve/serving_session.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace prionn::core::serve {

std::vector<std::optional<JobPrediction>> SessionResult::nn_predictions()
    const {
  std::vector<std::optional<JobPrediction>> out(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i] &&
        predictions[i]->source == PredictionSource::kNeuralNet)
      out[i] = predictions[i]->value;
  return out;
}

ServingSession::ServingSession(SessionOptions options)
    : options_(std::move(options)),
      resume_pending_(!options_.checkpoint_path.empty()) {
  if (resume_pending_ && options_.mode == ReplayMode::kConcurrent)
    throw std::invalid_argument(
        "ServingSession: checkpoint_path needs the deterministic mode, "
        "whose retrains happen at fixed submissions");
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
  const bool deterministic = options_.mode == ReplayMode::kDeterministic;
  SessionResult result;
  result.predictions.resize(jobs.size());

  // A checkpointed run continues from its newest loadable checkpoint: the
  // jobs before its cursor were served by the run that wrote it.
  std::optional<DecodedCheckpoint> checkpoint;
  if (resume_pending_) {
    resume_pending_ = false;
    auto resumed = resume_checkpoint(options_.checkpoint_path);
    result.resume_source = resumed.source;
    result.resume_error = std::move(resumed.primary_error);
    checkpoint = std::move(resumed.checkpoint);
    if (checkpoint)
      result.resume_index = std::min<std::size_t>(
          static_cast<std::size_t>(checkpoint->state.next_index),
          jobs.size());
  }
  const std::size_t start = result.resume_index;

  // Answers are collected window by window: a deterministic barrier
  // closes the window of submissions since the previous one and logs its
  // provenance counts, so the event log reconstructs the serving history.
  std::vector<std::future<ProvenancedPrediction>> futures(jobs.size());
  std::size_t window_first = start;
  const auto close_window = [&](std::size_t end) {
    std::array<std::size_t, 3> sources{};
    for (std::size_t k = window_first; k < end; ++k) {
      if (!futures[k].valid()) continue;
      result.predictions[k] = futures[k].get();
      ++sources[static_cast<std::size_t>(result.predictions[k]->source)];
    }
    obs::WindowEvent w;
    w.predictions = sources[0] + sources[1] + sources[2];
    if (deterministic && w.predictions > 0) {
      const ServiceStats stats = service_->stats();
      w.window_id = stats.swaps + stats.rejected_retrains;
      w.first_job_index = window_first;
      w.from_neural_net = sources[0];
      w.from_random_forest = sources[1];
      w.from_requested = sources[2];
      w.checkpoint_generation = checkpoint_generation_;
      obs::emit(w);
    }
    window_first = end;
  };

  // The service sees completions in the order a one-job-at-a-time replay
  // would.
  CompletionFeed feed(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    const std::size_t moved = feed.advance(job.submit_time);
    const auto& completed = feed.completed();
    for (std::size_t k = completed.size() - moved; k < completed.size(); ++k)
      service_->complete(jobs[completed[k]]);
    if (i < start) {  // served before the checkpoint; bookkeeping only
      feed.submit(i);
      continue;
    }
    if (checkpoint) {
      service_->resume(std::move(*checkpoint));
      checkpoint.reset();
    }

    // Deterministic replay retrains at exactly the submissions the
    // cadence names, with a flush() barrier first so every outstanding
    // request is served by the pre-retrain model.
    if (deterministic && service_->retrain_due()) {
      service_->flush();
      close_window(i);
      const std::uint64_t r0 = util::Timer::now_ns();
      const bool accepted = service_->retrain_now();
      result.retrain_ns += util::Timer::now_ns() - r0;
      if (accepted && !options_.checkpoint_path.empty()) {
        OnlineCheckpointState state;  // 0 submissions since this retrain
        state.next_index = i;
        write_checkpoint_file(options_.checkpoint_path,
                              service_->live_model_bytes(), state);
        ++checkpoint_generation_;
        if (util::fault::fire(util::fault::FaultPoint::kCrash)) {
          result.crashed = true;
          result.crash_index = i;
          break;
        }
      }
    }

    futures[i] = service_->submit(job);
    feed.submit(i);
  }
  if (checkpoint) service_->resume(std::move(*checkpoint));  // cursor at end

  service_->flush();
  close_window(jobs.size());
  result.training_events = service_->training_events();
  result.stats = service_->stats();
  result.replay_ns = util::Timer::now_ns() - t0;
  return result;
}

}  // namespace prionn::core::serve
