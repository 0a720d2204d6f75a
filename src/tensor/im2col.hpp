// Convolution geometry, and the 1-D im2col / col2im lowering that turns
// Conv1d into GEMM (the classic Caffe-era approach). Conv2d runs direct
// kernels instead (nn/conv2d.cpp) and only uses Conv2dGeom from here.
#pragma once

#include <cstddef>

namespace prionn::tensor {

struct Conv2dGeom {
  std::size_t channels = 1;
  std::size_t height = 1, width = 1;
  std::size_t kernel_h = 3, kernel_w = 3;
  std::size_t stride_h = 1, stride_w = 1;
  std::size_t pad_h = 0, pad_w = 0;

  std::size_t out_h() const noexcept {
    return (height + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::size_t out_w() const noexcept {
    return (width + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Taps per output pixel: one per (c, kh, kw).
  std::size_t patch_rows() const noexcept {
    return channels * kernel_h * kernel_w;
  }
  /// Output pixels per channel.
  std::size_t patch_cols() const noexcept { return out_h() * out_w(); }
};

struct Conv1dGeom {
  std::size_t channels = 1;
  std::size_t length = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_len() const noexcept {
    return (length + 2 * pad - kernel) / stride + 1;
  }
  std::size_t patch_rows() const noexcept { return channels * kernel; }
  std::size_t patch_cols() const noexcept { return out_len(); }
};

void im2col_1d(const Conv1dGeom& g, const float* signal,
               float* cols) noexcept;
void im2col_1d_strided(const Conv1dGeom& g, const float* signal, float* cols,
                       std::size_t ld) noexcept;
void col2im_1d(const Conv1dGeom& g, const float* cols,
               float* signal_grad) noexcept;
void col2im_1d_strided(const Conv1dGeom& g, const float* cols,
                       std::size_t ld, float* signal_grad) noexcept;

}  // namespace prionn::tensor
