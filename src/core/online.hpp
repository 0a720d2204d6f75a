// The paper's online training protocol (section 2.3): predictions happen
// at submission time; after every 100 submissions the model is retrained
// (warm start) on the 500 most recently *completed* jobs, so knowledge is
// retained across training events while the model tracks the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "core/predictor.hpp"
#include "obs/events.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

/// The paper's §2.3 protocol parameters, shared by every consumer of the
/// online cadence: serve::PredictionService (and so every ServingSession
/// replay) and the benches' online random-forest baseline. One
/// definition, one validation.
struct OnlineProtocolOptions {
  std::size_t retrain_interval = 100;  // submissions between retrains
  std::size_t train_window = 500;      // most recent completions used
  std::size_t embedding_corpus = 500;  // scripts for the one-off w2v fit
  /// Completions needed before the first training event.
  std::size_t min_initial_completions = 100;

  /// Throws std::invalid_argument for parameters the protocol cannot run
  /// with (zero interval/window/corpus). Called by every consumer at
  /// construction, so a bad configuration fails before any replay work.
  void validate(const char* who) const;

  /// How many of the newest `completions` one retrain of `model` reads:
  /// the training window, or the embedding corpus when that is larger and
  /// the model still needs its embedding.
  std::size_t retrain_records(const PrionnPredictor& model,
                              std::size_t completions) const;
};

/// The divergence guards of a retrain attempt, as serve::PredictionService
/// applies them to every retrain it runs.
struct RetrainGuards {
  /// Guard 3 of 3 (after the finite-loss check and nn::TrainingDiverged):
  /// runtime-bin top-1 accuracy on a batch held back from the training
  /// window must reach this fraction, or the attempt is rejected. 0
  /// disables the check (and the window is then never split).
  double min_holdback_accuracy = 0.0;
  std::size_t holdback_size = 32;
  /// Back-to-back rejected attempts before the NN is benched for good.
  std::size_t max_consecutive_rejections = 3;
};

/// Jobs complete asynchronously: an end-time min-heap moves submitted jobs
/// into "completed" as the submission clock advances. Every replay of a
/// trace feeds its training window through this one queue, so all of them
/// see completions in the same order. `jobs` must outlive the feed.
class CompletionFeed {
 public:
  explicit CompletionFeed(const std::vector<trace::JobRecord>& jobs);
  explicit CompletionFeed(std::vector<trace::JobRecord>&&) = delete;

  /// Moves every submitted job that ended by `now` into completed(),
  /// earliest end first. Returns how many moved.
  std::size_t advance(double now);
  /// Job `index` was submitted; it completes at its end_time.
  void submit(std::size_t index) { in_flight_.push(index); }

  /// Indices of the completed jobs, in completion order.
  const std::vector<std::size_t>& completed() const noexcept {
    return completed_;
  }
  /// Copies of the newest min(n, completed) completions, oldest first.
  std::vector<trace::JobRecord> recent(std::size_t n) const;

 private:
  struct LaterEnd {
    const std::vector<trace::JobRecord>* jobs;
    bool operator()(std::size_t a, std::size_t b) const {
      return (*jobs)[a].end_time > (*jobs)[b].end_time;
    }
  };
  const std::vector<trace::JobRecord>& jobs_;
  std::priority_queue<std::size_t, std::vector<std::size_t>, LaterEnd>
      in_flight_;
  std::vector<std::size_t> completed_;
};

/// §2.3 cadence bookkeeping: retrain after every `retrain_interval`
/// submissions, the first time once `min_initial_completions` jobs have
/// completed. A rejected first attempt waits out a full interval before
/// its retry, and `max_consecutive_rejections` back-to-back rejections
/// bench the NN: no attempt is due from then on.
class RetrainCadence {
 public:
  /// Replays without guards never reject, so they never bench.
  explicit RetrainCadence(const OnlineProtocolOptions& protocol,
                          std::size_t max_consecutive_rejections = SIZE_MAX);

  /// Continue from a checkpoint taken `submissions_since_train`
  /// submissions after its model's last training event.
  void resume(bool trained, std::size_t submissions_since_train) noexcept;

  void count_submission() noexcept { ++since_train_; }
  /// Whether an attempt is due with `completions` jobs completed so far.
  bool due(std::size_t completions) const noexcept;

  /// An attempt starts: submissions from here on count toward the next
  /// interval. Returns the attempt's ordinal, from 0.
  std::size_t start_attempt() noexcept;
  /// Its outcome; the rejection that reaches the limit benches the NN.
  void finish_attempt(bool accepted) noexcept;

  std::size_t accepted() const noexcept { return accepted_; }
  std::size_t rejected() const noexcept { return rejected_; }
  bool benched() const noexcept { return benched_; }

 private:
  std::size_t retrain_interval_;
  std::size_t min_initial_completions_;
  std::size_t max_consecutive_rejections_;
  std::size_t since_train_ = 0;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t consecutive_rejections_ = 0;
  bool trained_ = false;
  bool benched_ = false;
};

/// Fits `model`'s word2vec embedding on the newest `embedding_corpus`
/// scripts of `recent` (oldest first) if it has none; else does nothing.
void fit_missing_embedding(PrionnPredictor& model,
                           std::span<const trace::JobRecord> recent,
                           const OnlineProtocolOptions& protocol);

/// The newest `train_window` records of `recent`: what a retrain trains on.
std::span<const trace::JobRecord> training_window(
    std::span<const trace::JobRecord> recent,
    const OnlineProtocolOptions& protocol);

/// One guarded §2.3 retrain of `model` on `recent`, the newest
/// retrain_records() completions, oldest first. Fits the embedding if the
/// model has none, holds the newest `holdback_size` records of the
/// training window back when the accuracy guard is on, trains warm on the
/// rest, and rejects the attempt on a non-finite loss, nn::TrainingDiverged
/// or a holdback accuracy below the floor. A rejected model is left
/// half-trained: the caller restores or discards it, so that a rejected
/// attempt leaves the served model exactly as it was, embedding included.
/// The returned event says whether it was accepted; the caller fills
/// what only it knows: window_id, job_index, benched and duration_ms.
/// (A checkpoint follows the attempt, so the WindowEvents, not this
/// event, carry the checkpoint generation.)
obs::RetrainEvent attempt_retrain(PrionnPredictor& model,
                                  std::span<const trace::JobRecord> recent,
                                  const OnlineProtocolOptions& protocol,
                                  const RetrainGuards& guards);

}  // namespace prionn::core
