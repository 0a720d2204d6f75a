#include "nn/activations.hpp"

#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace prionn::nn {

Tensor Relu::forward(const Tensor& input, bool training) {
  keep_for_backward(input_, input, training);
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] < 0.0f) out[i] = 0.0f;
  return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
  PRIONN_CHECK(grad_output.same_shape(input_))
      << "Relu::backward: needs the input of a training forward of shape "
      << tensor::shape_to_string(grad_output.shape());
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i)
    if (input_[i] <= 0.0f) grad[i] = 0.0f;
  return grad;
}

void Relu::save(std::ostream& /*os*/) const {}
std::unique_ptr<Layer> Relu::load(std::istream& /*is*/) {
  return std::make_unique<Relu>();
}

}  // namespace prionn::nn
