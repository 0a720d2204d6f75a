#include "nn/pool.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace prionn::nn {

namespace {
std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("pool load: truncated stream");
  return v;
}
void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
}  // namespace

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride ? stride : window) {
  if (window_ == 0) throw std::invalid_argument("MaxPool2d: window > 0");
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  if (input.size() != 3)
    throw std::invalid_argument("MaxPool2d: expected (C, H, W)");
  if (input[1] < window_ || input[2] < window_)
    throw std::invalid_argument("MaxPool2d: window larger than input");
  return {input[0], (input[1] - window_) / stride_ + 1,
          (input[2] - window_) / stride_ + 1};
}

namespace {

/// One output row of a pooled plane, vectorised across the output
/// positions: every (ky, kx) tap is one pass over the row, so each output
/// still scans its window in (ky, kx) order from -inf and keeps a value
/// only when `v > best`. A NaN therefore never wins, and of -0.0 and +0.0
/// the first one seen stays. With kArgmax, arg[ox] records the flat input
/// index of the winner for backward; a window where nothing beats -inf
/// (all NaN or -inf) keeps its own first element.
template <bool kArgmax>
void pool_row(const float* plane, std::size_t w, std::size_t iy0,
              std::size_t window, std::size_t stride, std::size_t ow,
              float* out, std::size_t* arg, std::size_t plane_base) {
  std::fill_n(out, ow, -std::numeric_limits<float>::infinity());
  if constexpr (kArgmax)
    for (std::size_t ox = 0; ox < ow; ++ox)
      arg[ox] = plane_base + iy0 * w + ox * stride;
  for (std::size_t ky = 0; ky < window; ++ky) {
    const std::size_t row = (iy0 + ky) * w;
    for (std::size_t kx = 0; kx < window; ++kx) {
      const float* src = plane + row + kx;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float v = src[ox * stride];
        const float best = out[ox];
        out[ox] = v > best ? v : best;
        if constexpr (kArgmax)
          arg[ox] = v > best ? plane_base + row + kx + ox * stride : arg[ox];
      }
    }
  }
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  const std::size_t batch = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;
  Tensor out({batch, c, oh, ow});
  if (training) {
    input_shape_ = input.shape();
    argmax_.resize(out.size());
  } else {
    input_shape_.clear();
    argmax_.clear();
  }
  for (std::size_t plane = 0; plane < batch * c; ++plane) {
    const float* src = input.data() + plane * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const std::size_t oi = (plane * oh + oy) * ow;
      if (training)
        pool_row<true>(src, w, oy * stride_, window_, stride_, ow,
                       out.data() + oi, argmax_.data() + oi, plane * h * w);
      else
        pool_row<false>(src, w, oy * stride_, window_, stride_, ow,
                        out.data() + oi, nullptr, 0);
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(!input_shape_.empty() &&
               grad_output.size() == argmax_.size())
      << "MaxPool2d::backward: needs the state of a training forward "
         "with matching output; gradient has "
      << grad_output.size() << " elements, forward kept " << argmax_.size();
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

void MaxPool2d::save(std::ostream& os) const {
  write_u64(os, window_);
  write_u64(os, stride_);
}

std::unique_ptr<Layer> MaxPool2d::load(std::istream& is) {
  const auto window = static_cast<std::size_t>(read_u64(is));
  const auto stride = static_cast<std::size_t>(read_u64(is));
  return std::make_unique<MaxPool2d>(window, stride);
}

MaxPool1d::MaxPool1d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride ? stride : window) {
  if (window_ == 0) throw std::invalid_argument("MaxPool1d: window > 0");
}

Shape MaxPool1d::output_shape(const Shape& input) const {
  if (input.size() != 2)
    throw std::invalid_argument("MaxPool1d: expected (C, L)");
  if (input[1] < window_)
    throw std::invalid_argument("MaxPool1d: window larger than input");
  return {input[0], (input[1] - window_) / stride_ + 1};
}

Tensor MaxPool1d::forward(const Tensor& input, bool training) {
  const std::size_t batch = input.dim(0), c = input.dim(1);
  const std::size_t len = input.dim(2);
  const std::size_t ol = (len - window_) / stride_ + 1;
  Tensor out({batch, c, ol});
  if (training) {
    input_shape_ = input.shape();
    argmax_.assign(out.size(), 0);
  } else {
    input_shape_.clear();
    argmax_.clear();
  }
  std::size_t oi = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* lane = input.data() + (n * c + ch) * len;
      const std::size_t lane_base = (n * c + ch) * len;
      for (std::size_t o = 0; o < ol; ++o, ++oi) {
        // A window where nothing beats -inf keeps its first element.
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = lane_base + o * stride_;
        for (std::size_t k = 0; k < window_; ++k) {
          const std::size_t i = o * stride_ + k;
          if (lane[i] > best) {
            best = lane[i];
            best_idx = lane_base + i;
          }
        }
        out[oi] = best;
        if (training) argmax_[oi] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool1d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(!input_shape_.empty() &&
               grad_output.size() == argmax_.size())
      << "MaxPool1d::backward: needs the state of a training forward "
         "with matching output; gradient has "
      << grad_output.size() << " elements, forward kept " << argmax_.size();
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

void MaxPool1d::save(std::ostream& os) const {
  write_u64(os, window_);
  write_u64(os, stride_);
}

std::unique_ptr<Layer> MaxPool1d::load(std::istream& is) {
  const auto window = static_cast<std::size_t>(read_u64(is));
  const auto stride = static_cast<std::size_t>(read_u64(is));
  return std::make_unique<MaxPool1d>(window, stride);
}

}  // namespace prionn::nn
