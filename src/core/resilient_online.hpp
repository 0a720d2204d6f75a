// Resilient variant of the online protocol: the same submit/complete
// replay loop as core/online, hardened for long-running serving.
//
//   - Crash safety: after every accepted training event the full state
//     (predictor + replay cursor) goes to a crash-safe checkpoint file;
//     run() resumes a half-replayed trace from it with
//     prediction-for-prediction equivalence to an uninterrupted run.
//   - Divergence rollback: a retrain that throws nn::TrainingDiverged,
//     reports a non-finite loss, or collapses on a held-back batch is
//     rejected (core/online's attempt_retrain) — the predictor, embedding
//     included, is restored bit-exactly from an in-memory snapshot taken
//     before the attempt, the event is skipped, and the next interval
//     retries. Bounded: after `max_consecutive_rejections`
//     back-to-back rejections the NN is benched for the rest of the run
//     and serving continues on the fallback chain.
//   - Graceful degradation: every submission gets a prediction with
//     provenance (NN / random forest / user-requested) via
//     core/fallback, even before the first training event.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fallback.hpp"
#include "core/online.hpp"
#include "core/predictor.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

struct ResilientOptions {
  /// Protocol parameters (intervals, window, predictor). The
  /// reinitialize_on_retrain ablation flag is ignored here: rollback
  /// depends on the warm-start trajectory being the thing to restore.
  OnlineOptions online;
  FallbackOptions fallback;

  /// Checkpoint file; empty disables checkpointing (rollback still works
  /// off the in-memory snapshot).
  std::string checkpoint_path;

  RetrainGuards guards;
};

struct ResilientResult {
  /// Parallel to the input jobs. Entries before a resumed checkpoint's
  /// cursor are nullopt (they belong to the previous incarnation); every
  /// entry from the cursor on is populated.
  std::vector<std::optional<ProvenancedPrediction>> predictions;

  std::size_t training_events = 0;     // accepted
  std::size_t rejected_retrains = 0;   // diverged / collapsed, rolled back
  std::size_t rollbacks = 0;           // snapshot restores performed
  bool nn_benched = false;  // rejection limit hit; NN off from there on

  /// Where run() started from (primary / last-good / cold start) and why
  /// the primary was unusable, if it was.
  CheckpointSource resume_source = CheckpointSource::kNone;
  std::string resume_error;
  std::size_t resume_index = 0;  // first job processed by this run

  /// The kCrash fault point fired after a checkpoint: run() returned
  /// early, simulating process death. `predictions[crash_index:]` are
  /// unfilled; a fresh run() resumes from the checkpoint.
  bool crashed = false;
  std::size_t crash_index = 0;

  /// Prediction counts by provenance, in PredictionSource order.
  std::array<std::size_t, 3> source_counts() const noexcept;
};

class ResilientOnlineTrainer {
 public:
  explicit ResilientOnlineTrainer(ResilientOptions options = {});

  /// Replay `jobs` (sorted by submit time, canceled jobs removed). Safe to
  /// call on a fresh trainer after a simulated crash: it resumes from the
  /// checkpoint file and fills in the tail.
  ResilientResult run(const std::vector<trace::JobRecord>& jobs);

  PrionnPredictor& predictor() noexcept { return predictor_; }

 private:
  ResilientOptions options_;
  PrionnPredictor predictor_;
  FallbackPredictor fallback_;
};

}  // namespace prionn::core
