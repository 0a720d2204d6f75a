#include "tensor/im2col.hpp"

namespace prionn::tensor {

void im2col_1d_strided(const Conv1dGeom& g, const float* signal, float* cols,
                       std::size_t ld) noexcept {
  const std::size_t ol = g.out_len();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* lane = signal + c * g.length;
    for (std::size_t k = 0; k < g.kernel; ++k, ++row) {
      float* out = cols + row * ld;
      for (std::size_t o = 0; o < ol; ++o) {
        const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(o * g.stride + k) -
                                 static_cast<std::ptrdiff_t>(g.pad);
        out[o] = (i >= 0 && i < static_cast<std::ptrdiff_t>(g.length))
                     ? lane[static_cast<std::size_t>(i)]
                     : 0.0f;
      }
    }
  }
}

void im2col_1d(const Conv1dGeom& g, const float* signal,
               float* cols) noexcept {
  im2col_1d_strided(g, signal, cols, g.patch_cols());
}

void col2im_1d_strided(const Conv1dGeom& g, const float* cols,
                       std::size_t ld, float* signal_grad) noexcept {
  const std::size_t ol = g.out_len();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* lane = signal_grad + c * g.length;
    for (std::size_t k = 0; k < g.kernel; ++k, ++row) {
      const float* in = cols + row * ld;
      for (std::size_t o = 0; o < ol; ++o) {
        const std::ptrdiff_t i = static_cast<std::ptrdiff_t>(o * g.stride + k) -
                                 static_cast<std::ptrdiff_t>(g.pad);
        if (i >= 0 && i < static_cast<std::ptrdiff_t>(g.length))
          lane[static_cast<std::size_t>(i)] += in[o];
      }
    }
  }
}

void col2im_1d(const Conv1dGeom& g, const float* cols,
               float* signal_grad) noexcept {
  col2im_1d_strided(g, cols, g.patch_cols(), signal_grad);
}

}  // namespace prionn::tensor
