#include "core/fallback.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/obs.hpp"

namespace prionn::core {

namespace {

void count_provenance(PredictionSource source) {
  PRIONN_OBS_INC("prionn_predictions_total",
                 "predictions served at submission time");
  switch (source) {
    case PredictionSource::kNeuralNet:
      PRIONN_OBS_INC("prionn_predictions_nn_total",
                     "predictions served by the neural net");
      break;
    case PredictionSource::kRandomForest:
      PRIONN_OBS_INC("prionn_predictions_rf_total",
                     "predictions served by the random-forest fallback");
      break;
    case PredictionSource::kRequested:
      PRIONN_OBS_INC("prionn_predictions_requested_total",
                     "predictions served from the user's request");
      break;
  }
}

}  // namespace

const char* prediction_source_name(PredictionSource s) noexcept {
  switch (s) {
    case PredictionSource::kNeuralNet: return "neural-net";
    case PredictionSource::kRandomForest: return "random-forest";
    case PredictionSource::kRequested: return "requested";
  }
  return "?";
}

FallbackPredictor::FallbackPredictor(FallbackOptions options)
    : options_(options) {}

void FallbackPredictor::fit_baseline(
    std::span<const trace::JobRecord> window) {
  if (window.empty()) return;
  PRIONN_OBS_SPAN("fallback.fit_baseline");
  PRIONN_OBS_TIME("prionn_rf_refit_latency_ns",
                  "random-forest baseline refit wall time");
  PRIONN_OBS_INC("prionn_rf_refits_total",
                 "random-forest baseline refits");
  // Fresh encoder per fit: the label ids must be a pure function of the
  // window, not of every job this process ever saw, or a resumed run
  // would encode the same window differently. Each script is parsed and
  // encoded once; the three heads' datasets differ only in their targets.
  encoder_ = trace::FeatureEncoder();
  ml::Dataset runtime(trace::ScriptFeatures::kCount);
  ml::Dataset read(trace::ScriptFeatures::kCount);
  ml::Dataset write(trace::ScriptFeatures::kCount);
  for (ml::Dataset* d : {&runtime, &read, &write}) d->reserve(window.size());
  for (const auto& job : window) {
    const auto row = encoder_.encode(trace::parse_script(job.script));
    const std::span<const double> x(row.data(), row.size());
    runtime.add_row(x, job.runtime_minutes);
    read.add_row(x, job.bytes_read);
    write.add_row(x, job.bytes_written);
  }
  const auto fit_head = [&](const ml::Dataset& data) {
    auto rf = std::make_unique<ml::RandomForestRegressor>(options_.forest);
    rf->fit(data);
    return rf;
  };
  runtime_rf_ = fit_head(runtime);
  read_rf_ = fit_head(read);
  write_rf_ = fit_head(write);
  baseline_ready_ = true;
}

std::optional<ProvenancedPrediction> accept_nn_answer(
    const ConfidentPrediction& answer, double min_confidence) {
  if (answer.runtime_confidence < min_confidence ||
      !std::isfinite(answer.value.runtime_minutes))
    return std::nullopt;
  count_provenance(PredictionSource::kNeuralNet);
  return ProvenancedPrediction{answer.value, PredictionSource::kNeuralNet,
                               answer.runtime_confidence};
}

ProvenancedPrediction FallbackPredictor::predict(
    PrionnPredictor* nn, const trace::JobRecord& job) {
  PRIONN_OBS_SPAN("serve.predict");
  PRIONN_OBS_TIME("prionn_predict_latency_ns",
                  "per-job prediction latency");
  if (nn && nn->trained()) {
    const auto answer =
        nn->predict_batch(std::span<const std::string>(&job.script, 1))
            .front();
    if (auto served = accept_nn_answer(answer, options_.min_confidence))
      return *served;
  }
  ProvenancedPrediction out;
  if (baseline_ready_) {
    const auto row = encoder_.encode_const(trace::parse_script(job.script));
    const std::span<const double> x(row.data(), row.size());
    out.value.runtime_minutes = std::max(1.0, runtime_rf_->predict(x));
    out.value.bytes_read = std::max(0.0, read_rf_->predict(x));
    out.value.bytes_written = std::max(0.0, write_rf_->predict(x));
    out.source = PredictionSource::kRandomForest;
  } else {
    // Last resort: what the scheduler used before PRIONN — the user's own
    // requested runtime, no IO estimate.
    out.value.runtime_minutes = std::max(1.0, job.requested_minutes);
    out.source = PredictionSource::kRequested;
  }
  count_provenance(out.source);
  return out;
}

}  // namespace prionn::core
