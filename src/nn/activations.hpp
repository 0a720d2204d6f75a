// The element-wise ReLU activation layer. Shape-agnostic: it applies to
// whatever batch tensor flows through.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace prionn::nn {

class Relu : public Layer {
 public:
  std::string kind() const override { return "relu"; }
  Shape output_shape(const Shape& input) const override { return input; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  Tensor input_;
};

}  // namespace prionn::nn
