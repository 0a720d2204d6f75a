#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prionn::tensor {

std::size_t argmax(std::span<const float> xs) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

void softmax_inplace(std::span<float> xs) noexcept {
  if (xs.empty()) return;
  const float peak = *std::max_element(xs.begin(), xs.end());
  float total = 0.0f;
  for (float& x : xs) {
    x = std::exp(x - peak);
    total += x;
  }
  const float inv = 1.0f / total;
  for (float& x : xs) x *= inv;
}

void softmax_rows_inplace(Tensor& t) {
  if (t.rank() != 2)
    throw std::invalid_argument("softmax_rows_inplace: rank-2 required");
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r)
    softmax_inplace(std::span<float>(t.data() + r * cols, cols));
}

}  // namespace prionn::tensor
