// Trace replay through the concurrent PredictionService — the one loop
// that runs the paper's §2.3 protocol over a recorded trace, for the
// figure benchmarks, the examples and the serving gates alike.
//
// Two modes:
//   - kDeterministic: the session drives retraining itself (flush()
//     barrier + retrain_now() whenever the service's cadence says one is
//     due), so every retrain happens at exactly the submission the §2.3
//     cadence names and sees exactly the completions a one-job-at-a-time
//     replay would. Micro-batched inference and the encoding cache change
//     the wall clock, never the arithmetic: the answers are a pure
//     function of the trace, the options and the seed. This mode also
//     keeps a crash-safe checkpoint and resumes from it (checkpoint_path).
//   - kConcurrent: retraining runs on the service's background thread and
//     submissions never wait for it; which model generation serves a
//     given job depends on timing. This is the mode the serving latency
//     benchmark measures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/serve/prediction_service.hpp"
#include "trace/job_record.hpp"

namespace prionn::core::serve {

enum class ReplayMode {
  kDeterministic,  // cadence barriers; answers fixed by trace and seed
  kConcurrent,     // background retrain; inference never blocks on it
};

struct SessionOptions {
  ServiceOptions service;
  ReplayMode mode = ReplayMode::kDeterministic;

  /// Crash-safe checkpoint file; empty disables checkpointing. Only the
  /// deterministic mode takes one (the constructor throws
  /// std::invalid_argument otherwise). After every accepted retrain the
  /// session writes the served model and its replay cursor here; the
  /// first replay() resumes from it, or from its last-good generation,
  /// and answers every later job as the uninterrupted run would.
  std::string checkpoint_path;
};

struct SessionResult {
  /// One per input job, in submission order. Every job this replay
  /// submitted has an answer (the fallback chain serves the pre-training
  /// prefix); jobs before resume_index, which a previous run served, and
  /// from crash_index on have none.
  std::vector<std::optional<ProvenancedPrediction>> predictions;
  std::size_t training_events = 0;  // accepted by the session so far
  std::uint64_t replay_ns = 0;      // wall time of the whole replay
  /// Of it, the time in retrain_now() (deterministic mode; monotonic).
  std::uint64_t retrain_ns = 0;
  ServiceStats stats;

  /// Where the replay started from when a checkpoint path is set: the
  /// primary checkpoint, its last-good generation, or a cold start; why
  /// the primary was unusable, if it was; and the first job submitted.
  CheckpointSource resume_source = CheckpointSource::kNone;
  std::string resume_error;
  std::size_t resume_index = 0;

  /// The kCrash fault point fired after a checkpoint write: the replay
  /// stopped there, as a killed process would, before submitting job
  /// crash_index. A new session on the same path resumes from it.
  bool crashed = false;
  std::size_t crash_index = 0;

  /// The NN-served predictions, nullopt where the fallback chain (or no
  /// one) answered — what the figure pipelines consume.
  std::vector<std::optional<JobPrediction>> nn_predictions() const;
};

class ServingSession {
 public:
  explicit ServingSession(SessionOptions options);

  /// Replay a completed-jobs trace (sorted by submit time) through the
  /// service: completions are fed to the training window as the
  /// submission clock passes their end times. May be called again to
  /// continue the protocol on a further trace segment.
  SessionResult replay(const std::vector<trace::JobRecord>& jobs);

  PredictionService& service() noexcept { return *service_; }

 private:
  SessionOptions options_;
  std::unique_ptr<PredictionService> service_;
  bool resume_pending_ = false;            // first replay() not run yet
  std::uint64_t checkpoint_generation_ = 0;  // checkpoints written
};

}  // namespace prionn::core::serve
