// Graceful degradation for serving: every submitted job gets *some*
// prediction with recorded provenance, even when the neural predictor is
// untrained, unconfident, or mid-rollback. The chain is
//
//   1. PRIONN NN      — trained and max-softmax confidence >= threshold
//   2. Random Forest  — the paper's strongest traditional baseline, fit on
//                       the same completion window from Table-1 features
//   3. requested      — the user's requested runtime, zero IO (what the
//                       scheduler would have used before PRIONN existed)
//
// The RF baseline refits from a *fresh* FeatureEncoder each time, so its
// label encoding depends only on the window contents — a resumed run
// refitting on the same window reproduces the same fallback predictions.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>

#include "core/predictor.hpp"
#include "ml/random_forest.hpp"
#include "trace/features.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

enum class PredictionSource { kNeuralNet, kRandomForest, kRequested };
const char* prediction_source_name(PredictionSource s) noexcept;

struct ProvenancedPrediction {
  JobPrediction value;
  PredictionSource source = PredictionSource::kRequested;
  /// Runtime-head confidence when source == kNeuralNet, else 0.
  double confidence = 0.0;
};

/// The chain's NN leg: a model's answer is served when its runtime-head
/// confidence reaches `min_confidence` and its runtime is finite. Counts
/// the answer's provenance when it is served; nullopt passes the job on
/// to the rest of the chain.
std::optional<ProvenancedPrediction> accept_nn_answer(
    const ConfidentPrediction& answer, double min_confidence);

struct FallbackOptions {
  /// Minimum runtime-head softmax confidence for trusting the NN. The
  /// default accepts everything a trained model emits; raise it to shed
  /// low-confidence predictions onto the RF baseline.
  double min_confidence = 0.0;
  ml::RandomForestOptions forest;
};

class FallbackPredictor {
 public:
  explicit FallbackPredictor(FallbackOptions options = {});

  /// (Re)fit the RF baseline heads on a completion window. Skipped (the
  /// baseline stays in its previous state) when the window is empty.
  void fit_baseline(std::span<const trace::JobRecord> window);

  bool baseline_ready() const noexcept { return baseline_ready_; }

  /// Walk the chain for one job. `nn` may be null (NN layer skipped
  /// entirely, e.g. while a divergent model is rolled back).
  ProvenancedPrediction predict(PrionnPredictor* nn,
                                const trace::JobRecord& job);

 private:
  FallbackOptions options_;
  std::unique_ptr<ml::RandomForestRegressor> runtime_rf_;
  std::unique_ptr<ml::RandomForestRegressor> read_rf_;
  std::unique_ptr<ml::RandomForestRegressor> write_rf_;
  trace::FeatureEncoder encoder_;
  bool baseline_ready_ = false;
};

}  // namespace prionn::core
