// Element-wise and reduction primitives shared by the NN layers.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.hpp"

namespace prionn::tensor {

/// Index of the maximum element (first on ties); span must be non-empty.
std::size_t argmax(std::span<const float> xs) noexcept;

/// Numerically stable in-place softmax over a span.
void softmax_inplace(std::span<float> xs) noexcept;

/// Row-wise softmax of a rank-2 tensor, in place.
void softmax_rows_inplace(Tensor& t);

}  // namespace prionn::tensor
