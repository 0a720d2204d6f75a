#include "core/online.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "obs/obs.hpp"

namespace prionn::core {

void OnlineProtocolOptions::validate(const char* who) const {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (retrain_interval == 0) fail("retrain_interval must be > 0");
  if (train_window == 0) fail("train_window must be > 0");
  if (embedding_corpus == 0) fail("embedding_corpus must be > 0");
}

std::size_t OnlineProtocolOptions::retrain_records(
    const PrionnPredictor& model, std::size_t completions) const {
  const std::size_t reach = model.needs_embedding()
                                ? std::max(train_window, embedding_corpus)
                                : train_window;
  return std::min(reach, completions);
}

CompletionFeed::CompletionFeed(const std::vector<trace::JobRecord>& jobs)
    : jobs_(jobs), in_flight_(LaterEnd{&jobs}) {
  completed_.reserve(jobs.size());
}

std::size_t CompletionFeed::advance(double now) {
  const std::size_t before = completed_.size();
  while (!in_flight_.empty() && jobs_[in_flight_.top()].end_time <= now) {
    completed_.push_back(in_flight_.top());
    in_flight_.pop();
  }
  return completed_.size() - before;
}

std::vector<trace::JobRecord> CompletionFeed::recent(std::size_t n) const {
  n = std::min(n, completed_.size());
  std::vector<trace::JobRecord> out;
  out.reserve(n);
  for (std::size_t k = completed_.size() - n; k < completed_.size(); ++k)
    out.push_back(jobs_[completed_[k]]);
  return out;
}

RetrainCadence::RetrainCadence(const OnlineProtocolOptions& protocol,
                               std::size_t max_consecutive_rejections)
    : retrain_interval_(protocol.retrain_interval),
      min_initial_completions_(protocol.min_initial_completions),
      max_consecutive_rejections_(max_consecutive_rejections) {}

void RetrainCadence::resume(bool trained,
                            std::size_t submissions_since_train) noexcept {
  trained_ = trained;
  since_train_ = submissions_since_train;
}

bool RetrainCadence::due(std::size_t completions) const noexcept {
  if (benched_ || completions == 0) return false;
  if (!trained_)
    return completions >= min_initial_completions_ &&
           (rejected_ == 0 || since_train_ >= retrain_interval_);
  return since_train_ >= retrain_interval_;
}

std::size_t RetrainCadence::start_attempt() noexcept {
  since_train_ = 0;
  return accepted_ + rejected_;
}

void RetrainCadence::finish_attempt(bool accepted) noexcept {
  if (accepted) {
    ++accepted_;
    consecutive_rejections_ = 0;
    trained_ = true;
    return;
  }
  ++rejected_;
  if (benched_ || ++consecutive_rejections_ < max_consecutive_rejections_)
    return;
  benched_ = true;
  PRIONN_OBS_INC("prionn_nn_benched_total",
                 "times the neural net was benched for the run");
}

void fit_missing_embedding(PrionnPredictor& model,
                           std::span<const trace::JobRecord> recent,
                           const OnlineProtocolOptions& protocol) {
  if (!model.needs_embedding()) return;
  const auto corpus_jobs =
      recent.last(std::min(protocol.embedding_corpus, recent.size()));
  std::vector<std::string> corpus;
  corpus.reserve(corpus_jobs.size());
  for (const auto& job : corpus_jobs) corpus.push_back(job.script);
  model.fit_embedding(corpus);
}

std::span<const trace::JobRecord> training_window(
    std::span<const trace::JobRecord> recent,
    const OnlineProtocolOptions& protocol) {
  return recent.last(std::min(protocol.train_window, recent.size()));
}

obs::RetrainEvent attempt_retrain(PrionnPredictor& model,
                                  std::span<const trace::JobRecord> recent,
                                  const OnlineProtocolOptions& protocol,
                                  const RetrainGuards& guards) {
  obs::RetrainEvent event;
  std::span<const trace::JobRecord> train_set =
      training_window(recent, protocol);
  std::span<const trace::JobRecord> holdback;
  if (guards.min_holdback_accuracy > 0.0 &&
      train_set.size() > guards.holdback_size) {
    holdback = train_set.last(guards.holdback_size);
    train_set = train_set.first(train_set.size() - guards.holdback_size);
  }
  event.window_size = train_set.size() + holdback.size();
  event.holdback_size = holdback.size();

  try {
    fit_missing_embedding(model, recent, protocol);
    const auto report = model.train(train_set);
    event.loss = {report.runtime_loss, report.read_loss, report.write_loss};
    event.accepted = std::isfinite(report.runtime_loss) &&
                     std::isfinite(report.read_loss) &&
                     std::isfinite(report.write_loss);
    if (event.accepted && !holdback.empty()) {
      PRIONN_OBS_SPAN("serve.holdback_eval");
      std::vector<std::string> scripts;
      scripts.reserve(holdback.size());
      for (const auto& h : holdback) scripts.push_back(h.script);
      // One batched forward over the whole holdback set — the batch path
      // is per-sample identical to single-item predicts.
      const auto predicted = model.predict_batch(scripts);
      const RuntimeBins& bins = model.runtime_bins();
      std::size_t correct = 0;
      for (std::size_t h = 0; h < holdback.size(); ++h)
        if (bins.label_of(predicted[h].value.runtime_minutes) ==
            bins.label_of(holdback[h].runtime_minutes))
          ++correct;
      event.holdback_accuracy = static_cast<double>(correct) /
                                static_cast<double>(holdback.size());
      event.accepted =
          event.holdback_accuracy >= guards.min_holdback_accuracy;
    }
  } catch (const nn::TrainingDiverged&) {
    event.accepted = false;
  }

  if (event.accepted) {
    PRIONN_OBS_INC("prionn_retrains_total",
                   "training events of the online protocol");
  } else {
    PRIONN_OBS_INC("prionn_retrains_rejected_total",
                   "retrain attempts rejected by the guards");
  }
  return event;
}

}  // namespace prionn::core
