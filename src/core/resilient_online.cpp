#include "core/resilient_online.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace prionn::core {

std::array<std::size_t, 3> ResilientResult::source_counts() const noexcept {
  std::array<std::size_t, 3> counts{};
  for (const auto& p : predictions)
    if (p) ++counts[static_cast<std::size_t>(p->source)];
  return counts;
}

ResilientOnlineTrainer::ResilientOnlineTrainer(ResilientOptions options)
    : options_(std::move(options)),
      predictor_(options_.online.predictor),
      fallback_(options_.fallback) {
  options_.online.validate("ResilientOnlineTrainer");
}

ResilientResult ResilientOnlineTrainer::run(
    const std::vector<trace::JobRecord>& jobs) {
  ResilientResult result;
  result.predictions.assign(jobs.size(), std::nullopt);
  const OnlineProtocolOptions& protocol = options_.online;
  CompletionFeed feed(jobs);
  RetrainCadence cadence(protocol, options_.guards.max_consecutive_rejections);
  std::size_t start = 0;

  if (!options_.checkpoint_path.empty()) {
    auto resumed = resume_checkpoint(options_.checkpoint_path);
    result.resume_source = resumed.source;
    result.resume_error = std::move(resumed.primary_error);
    if (resumed.checkpoint) {
      predictor_ = std::move(resumed.checkpoint->predictor);
      const auto& st = resumed.checkpoint->state;
      start = std::min<std::size_t>(
          static_cast<std::size_t>(st.next_index), jobs.size());
      cadence.resume(predictor_.trained(),
                     static_cast<std::size_t>(st.submissions_since_train));
    }
  }
  result.resume_index = start;

  // Replay the completion bookkeeping for everything the previous
  // incarnation already processed: pure heap push/pop, no model work.
  for (std::size_t i = 0; i < start; ++i) {
    feed.advance(jobs[i].submit_time);
    feed.submit(i);
  }
  // The fallback baseline is not part of the checkpoint; it refits from
  // the same completion window the checkpointed training event used,
  // which is only fully drained at the top of iteration `start`.
  bool baseline_refit_pending = start > 0 && predictor_.trained();

  // Telemetry bookkeeping: one structured event per retrain attempt and
  // one per prediction window (the submissions between retrain
  // boundaries), so the event log reconstructs the serving history.
  std::uint64_t checkpoint_generation = 0;
  std::uint64_t window_first_job = start;
  std::array<std::size_t, 3> window_sources{};
  const auto flush_window = [&](std::size_t next_first) {
    obs::WindowEvent w;
    w.predictions = window_sources[0] + window_sources[1] + window_sources[2];
    if (w.predictions > 0) {
      w.window_id = cadence.accepted() + cadence.rejected();
      w.first_job_index = window_first_job;
      w.from_neural_net = window_sources[0];
      w.from_random_forest = window_sources[1];
      w.from_requested = window_sources[2];
      w.checkpoint_generation = checkpoint_generation;
      obs::emit(w);
    }
    window_sources = {};
    window_first_job = next_first;
  };

  for (std::size_t i = start; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    feed.advance(job.submit_time);

    if (baseline_refit_pending && !feed.completed().empty()) {
      fallback_.fit_baseline(feed.recent(protocol.train_window));
      baseline_refit_pending = false;
    }

    if (cadence.due(feed.completed().size())) {
      flush_window(i);
      PRIONN_OBS_SPAN("serve.retrain");
      util::Timer retrain_timer;
      const std::size_t attempt_id = cadence.start_attempt();
      const auto recent = feed.recent(
          protocol.retrain_records(predictor_, feed.completed().size()));

      // Snapshot before touching the model: train() is not atomic under
      // divergence, so rejection restores these exact bytes (the
      // embedding the attempt may fit included).
      std::string snapshot;
      {
        PRIONN_OBS_SPAN("serve.snapshot");
        snapshot = predictor_.snapshot();
      }
      obs::RetrainEvent event =
          attempt_retrain(predictor_, recent, protocol, options_.guards);
      if (!event.accepted) {
        PRIONN_OBS_SPAN("serve.rollback");
        predictor_ = PrionnPredictor::from_snapshot(snapshot);
      }
      cadence.finish_attempt(event.accepted);
      result.training_events = cadence.accepted();
      result.rejected_retrains = result.rollbacks = cadence.rejected();
      result.nn_benched = cadence.benched();

      if (event.accepted) {
        fallback_.fit_baseline(training_window(recent, protocol));
        if (!options_.checkpoint_path.empty()) {
          OnlineCheckpointState st;  // 0 submissions since this event
          st.next_index = i;
          st.embedding_ready = !predictor_.needs_embedding();
          write_checkpoint_file(options_.checkpoint_path, predictor_, st);
          ++checkpoint_generation;
          result.crashed = util::fault::fire(util::fault::FaultPoint::kCrash);
          result.crash_index = result.crashed ? i : 0;
        }
      }
      event.window_id = attempt_id;
      event.job_index = i;
      event.benched = cadence.benched();
      event.checkpoint_generation = checkpoint_generation;
      event.duration_ms =
          static_cast<double>(retrain_timer.elapsed_ns()) / 1e6;
      obs::emit(event);
      if (result.crashed) return result;
    }

    result.predictions[i] =
        fallback_.predict(cadence.benched() ? nullptr : &predictor_, job);
    ++window_sources[static_cast<std::size_t>(
        result.predictions[i]->source)];
    cadence.count_submission();
    feed.submit(i);
  }
  flush_window(jobs.size());
  return result;
}

}  // namespace prionn::core
