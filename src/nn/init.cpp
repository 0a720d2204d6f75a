#include "nn/init.hpp"

#include <cmath>

namespace prionn::nn {

void he_init(tensor::Tensor& w, std::size_t fan_in, util::Rng& rng) {
  const double sigma = std::sqrt(2.0 / static_cast<double>(fan_in ? fan_in : 1));
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<float>(rng.normal(0.0, sigma));
}

}  // namespace prionn::nn
