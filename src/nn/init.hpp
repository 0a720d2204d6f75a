// Weight initialisation: He initialisation, for the ReLU stacks that all
// of PRIONN's models are.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace prionn::nn {

/// N(0, sqrt(2 / fan_in)) — He et al. 2015.
void he_init(tensor::Tensor& w, std::size_t fan_in, util::Rng& rng);

}  // namespace prionn::nn
