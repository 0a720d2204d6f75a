// Max pooling (2-D over NCHW, 1-D over NCL). A training forward stores the
// winning index of each window for the backward scatter; an inference
// forward stores nothing.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace prionn::nn {

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2, std::size_t stride = 0);

  std::string kind() const override { return "maxpool2d"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

class MaxPool1d : public Layer {
 public:
  explicit MaxPool1d(std::size_t window = 2, std::size_t stride = 0);

  std::string kind() const override { return "maxpool1d"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape input_shape_;
  std::vector<std::size_t> argmax_;
};

}  // namespace prionn::nn
