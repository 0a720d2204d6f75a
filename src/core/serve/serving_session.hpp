// Trace replay through the concurrent PredictionService — the bridge
// between the figure benchmarks (which replay recorded traces) and the
// serving subsystem (which serves live submissions).
//
// Two modes:
//   - kDeterministic: the session drives retraining itself (flush()
//     barrier + retrain_now() whenever the service's cadence says one is
//     due, at exactly the submissions where the sequential trainers
//     train), so the replay is prediction-for-
//     prediction identical to the sequential trainer at a fixed seed —
//     micro-batched inference and the encoding cache change the wall
//     clock, never the arithmetic. fig08/fig11 can run through the
//     service and reproduce their curves bit-exactly.
//   - kConcurrent: retraining runs on the service's background thread and
//     submissions never wait for it; which model generation serves a
//     given job depends on timing. This is the mode the serving latency
//     benchmark measures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/serve/prediction_service.hpp"
#include "trace/job_record.hpp"

namespace prionn::core::serve {

enum class ReplayMode {
  kDeterministic,  // cadence barriers; equals OnlineTrainer bit-exactly
  kConcurrent,     // background retrain; inference never blocks on it
};

struct SessionOptions {
  ServiceOptions service;
  ReplayMode mode = ReplayMode::kDeterministic;
};

struct SessionResult {
  /// One per input job, in submission order; every job gets an answer
  /// (the fallback chain serves the pre-training prefix).
  std::vector<ProvenancedPrediction> predictions;
  std::size_t training_events = 0;
  std::uint64_t replay_ns = 0;  // wall time of the whole replay
  ServiceStats stats;

  /// OnlineResult-shaped view: the NN-served predictions, nullopt where
  /// the fallback chain answered — what the figure pipelines consume.
  std::vector<std::optional<JobPrediction>> nn_predictions() const;
};

class ServingSession {
 public:
  explicit ServingSession(SessionOptions options);

  /// Replay a completed-jobs trace (sorted by submit time) through the
  /// service: completions are fed to the training window as the
  /// submission clock passes their end times, exactly like the
  /// sequential trainers. May be called again to continue the protocol
  /// on a further trace segment.
  SessionResult replay(const std::vector<trace::JobRecord>& jobs);

  PredictionService& service() noexcept { return *service_; }

 private:
  SessionOptions options_;
  std::unique_ptr<PredictionService> service_;
};

}  // namespace prionn::core::serve
