// 2-D convolution over (N, C, H, W) batches. This is the workhorse of the
// paper's chosen model (2D-CNN over 64 x 64 script images). Direct
// kernels over a zero-padded copy of each sample: every (c, kh, kw) tap
// is one flat, vectorisable loop at the padded row pitch, for the output,
// the input gradient and the weight gradient alike, so no patch matrix is
// ever built. The kernels run on the calling thread.
#pragma once

#include <memory>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace prionn::nn {

class Conv2d : public Layer {
 public:
  /// Square kernels and symmetric padding cover every configuration used in
  /// the paper's models; rectangular variants are supported anyway.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_h, std::size_t kernel_w, std::size_t stride,
         std::size_t pad, util::Rng& rng);
  Conv2d(Tensor weight, Tensor bias, std::size_t stride, std::size_t pad);

  std::string kind() const override { return "conv2d"; }
  Shape output_shape(const Shape& input) const override;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  void save(std::ostream& os) const override;
  static std::unique_ptr<Layer> load(std::istream& is);

  std::size_t in_channels() const noexcept { return weight_.dim(1); }
  std::size_t out_channels() const noexcept { return weight_.dim(0); }

 private:
  tensor::Conv2dGeom geometry(const Shape& sample) const;

  Tensor weight_;  // (out_c, in_c, kh, kw)
  Tensor bias_;    // (out_c)
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::size_t stride_ = 1;
  std::size_t pad_ = 0;

  Tensor input_;               // batch of the last training forward
  tensor::Conv2dGeom geom_{};  // geometry of the last forward
};

}  // namespace prionn::nn
