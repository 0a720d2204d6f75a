#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace prionn::nn {

LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::uint32_t> labels) {
  if (logits.rank() != 2)
    throw std::invalid_argument("softmax_cross_entropy: logits must be N x C");
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  if (labels.size() != batch)
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");

  LossResult result;
  result.grad = logits;  // reuse as probability buffer
  tensor::softmax_rows_inplace(result.grad);

  double loss = 0.0;
  const double floor = 1e-12;  // guard the log against exact zeros
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t n = 0; n < batch; ++n) {
    const std::uint32_t y = labels[n];
    if (y >= classes)
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    float* row = result.grad.data() + n * classes;
    loss -= std::log(std::max(static_cast<double>(row[y]), floor));
    // grad = (p - onehot) / N
    row[y] -= 1.0f;
    for (std::size_t c = 0; c < classes; ++c) row[c] *= inv_batch;
  }
  result.value = loss / static_cast<double>(batch);
  // Trust boundary: a NaN/Inf loss means the forward pass diverged (bad
  // inputs or exploded weights). Report it here, at the point of
  // production and before any parameter update, instead of letting NaN
  // gradients silently poison the parameters and every later prediction.
  // Divergence is a recoverable data/environment fault (a poisoned batch,
  // a runaway retrain), so it throws rather than aborting; the resilient
  // serving layer rolls back to the last good snapshot.
  if (!std::isfinite(result.value))
    throw TrainingDiverged("softmax_cross_entropy: loss diverged over " +
                           std::to_string(batch) + " samples");
  PRIONN_DCHECK_FINITE(result.grad.span())
      << "softmax_cross_entropy: non-finite gradient";
  return result;
}

}  // namespace prionn::nn
