#include "nn/dropout.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace prionn::nn {

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  // The negated form also rejects NaN, which `rate < 0.0 || rate >= 1.0`
  // would wave through (and a NaN rate makes every bernoulli draw UB-ish
  // nonsense when a deserialised layer trains again).
  if (!(rate >= 0.0 && rate < 1.0))
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  trained_forward_ = training;
  if (!training) mask_ = Tensor();
  if (!training || rate_ == 0.0) return input;
  mask_ = Tensor(input.shape());
  const auto scale = static_cast<float>(1.0 / (1.0 - rate_));
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool keep = !rng_.bernoulli(rate_);
    mask_[i] = keep ? scale : 0.0f;
    out[i] *= mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  PRIONN_CHECK(trained_forward_ &&
               (rate_ == 0.0 || grad_output.same_shape(mask_)))
      << "Dropout::backward: needs the mask of a training forward of shape "
      << tensor::shape_to_string(grad_output.shape());
  if (rate_ == 0.0) return grad_output;
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= mask_[i];
  return grad;
}

void Dropout::save(std::ostream& os) const {
  os.write(reinterpret_cast<const char*>(&rate_), sizeof(rate_));
  // The mask RNG is part of the training trajectory: restoring it lets a
  // checkpointed warm-start retrain replay bit-exactly after a crash.
  rng_.save(os);
}

std::unique_ptr<Layer> Dropout::load(std::istream& is) {
  double rate = 0.0;
  is.read(reinterpret_cast<char*>(&rate), sizeof(rate));
  if (!is) throw std::runtime_error("Dropout::load: truncated stream");
  auto layer = std::make_unique<Dropout>(rate);
  layer->rng_ = util::Rng::load(is);
  return layer;
}

}  // namespace prionn::nn
