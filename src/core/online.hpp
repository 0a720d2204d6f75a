// The paper's online training protocol (section 2.3): predictions happen
// at submission time; after every 100 submissions the model is retrained
// (warm start) on the 500 most recently *completed* jobs, so knowledge is
// retained across training events while the model tracks the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/predictor.hpp"
#include "obs/events.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

/// The paper's §2.3 protocol parameters, shared by every consumer of the
/// online cadence: OnlineTrainer, ResilientOnlineTrainer, and the
/// concurrent serve::PredictionService. One definition, one validation.
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

/// The divergence guards of a retrain attempt, shared by
/// ResilientOnlineTrainer and serve::PredictionService.
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
/// what only it knows: window_id, job_index, benched,
/// checkpoint_generation and duration_ms.
obs::RetrainEvent attempt_retrain(PrionnPredictor& model,
                                  std::span<const trace::JobRecord> recent,
                                  const OnlineProtocolOptions& protocol,
                                  const RetrainGuards& guards);

struct OnlineOptions : OnlineProtocolOptions {
  PredictorOptions predictor;
  /// Ablation switch: when true, the model is re-initialised before every
  /// retraining instead of warm-started. The paper argues warm starts are
  /// what lets a 500-job window work ("learned parameters pass to
  /// subsequent models"); this flag lets the claim be measured.
  bool reinitialize_on_retrain = false;
};

struct OnlineResult {
  /// Parallel to the input jobs; nullopt while the model was still
  /// untrained at that job's submission.
  std::vector<std::optional<JobPrediction>> predictions;
  std::size_t training_events = 0;
  /// Monotonic (steady-clock) totals, accumulated from
  /// util::Timer::now_ns deltas so an NTP slew mid-replay cannot skew
  /// them; also exported as prionn_online_{train,predict}_seconds gauges.
  std::uint64_t train_ns = 0;    // total time in fit_embedding()+train()
  std::uint64_t predict_ns = 0;  // total time in predict_batch()
  double train_seconds = 0.0;    // train_ns in seconds, for convenience
  double predict_seconds = 0.0;  // predict_ns in seconds

  /// Indices of jobs that actually received a prediction.
  std::vector<std::size_t> predicted_indices() const;
};

/// Replays a completed-jobs trace (sorted by submit time, canceled jobs
/// already removed) through the online protocol.
class OnlineTrainer {
 public:
  explicit OnlineTrainer(OnlineOptions options = {});

  OnlineResult run(const std::vector<trace::JobRecord>& jobs);

  /// Access the predictor after run() (e.g. for follow-up predictions).
  PrionnPredictor& predictor() noexcept { return predictor_; }

 private:
  OnlineOptions options_;
  PrionnPredictor predictor_;
};

}  // namespace prionn::core
