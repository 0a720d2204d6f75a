#include "nn/flatten.hpp"

#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace prionn::nn {

Shape Flatten::output_shape(const Shape& input) const {
  std::size_t n = 1;
  for (const std::size_t d : input) n *= d;
  return {n};
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  if (training)
    input_shape_ = input.shape();
  else
    input_shape_.clear();
  Tensor out = input;
  out.reshape({input.dim(0), input.size() / input.dim(0)});
  return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  PRIONN_CHECK(!input_shape_.empty() &&
               tensor::shape_size(input_shape_) == grad_output.size())
      << "Flatten::backward: needs the shape of a training forward with "
      << grad_output.size() << " elements";
  Tensor grad = grad_output;
  grad.reshape(input_shape_);
  return grad;
}

void Flatten::save(std::ostream& /*os*/) const {}
std::unique_ptr<Layer> Flatten::load(std::istream& /*is*/) {
  return std::make_unique<Flatten>();
}

}  // namespace prionn::nn
