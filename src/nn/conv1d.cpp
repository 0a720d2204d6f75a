#include "nn/conv1d.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"

namespace prionn::nn {

Conv1d::Conv1d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : weight_({out_channels, in_channels, kernel}),
      bias_({out_channels}),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_(pad) {
  he_init(weight_, in_channels * kernel, rng);
}

Conv1d::Conv1d(Tensor weight, Tensor bias, std::size_t stride,
               std::size_t pad)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.shape()),
      grad_bias_(bias_.shape()),
      stride_(stride),
      pad_(pad) {
  if (weight_.rank() != 3 || bias_.rank() != 1 ||
      bias_.dim(0) != weight_.dim(0))
    throw std::invalid_argument("Conv1d: inconsistent weight/bias shapes");
}

tensor::Conv1dGeom Conv1d::geometry(const Shape& sample) const {
  if (sample.size() != 2 || sample[0] != in_channels())
    throw std::invalid_argument("Conv1d: expected (C, L) sample with C = " +
                                std::to_string(in_channels()));
  tensor::Conv1dGeom g;
  g.channels = sample[0];
  g.length = sample[1];
  g.kernel = weight_.dim(2);
  g.stride = stride_;
  g.pad = pad_;
  if (g.length + 2 * g.pad < g.kernel)
    throw std::invalid_argument("Conv1d: kernel larger than padded input");
  return g;
}

Shape Conv1d::output_shape(const Shape& input) const {
  const auto g = geometry(input);
  return {out_channels(), g.out_len()};
}

namespace {
// Cap the lowered patch matrix size per sub-batch.
constexpr std::size_t kMaxColsFloats1d = 16u << 20;  // 64 MiB
}  // namespace

Tensor Conv1d::forward(const Tensor& input, bool training) {
  const std::size_t batch = input.dim(0);
  geom_ = geometry({input.dim(1), input.dim(2)});
  keep_for_backward(input_, input, training);

  const std::size_t pr = geom_.patch_rows();
  const std::size_t ol = geom_.out_len();
  const std::size_t oc = out_channels();
  const std::size_t in_stride = geom_.channels * geom_.length;
  Tensor out({batch, oc, ol});

  // Batched lowering: each sample occupies a contiguous column block of
  // one wide patch matrix, multiplied by the kernel in one GEMM per
  // sub-batch.
  const std::size_t chunk =
      std::clamp<std::size_t>(kMaxColsFloats1d / (pr * ol), 1, batch);
  std::vector<float> cols(pr * chunk * ol);
  std::vector<float> gemm_out(oc * chunk * ol);
  for (std::size_t base = 0; base < batch; base += chunk) {
    const std::size_t n = std::min(chunk, batch - base);
    const std::size_t wide = n * ol;
    for (std::size_t s = 0; s < n; ++s)
      tensor::im2col_1d_strided(geom_, input.data() + (base + s) * in_stride,
                                cols.data() + s * ol, wide);
    tensor::gemm(oc, pr, wide, 1.0f, weight_.data(), cols.data(), 0.0f,
                 gemm_out.data());
    for (std::size_t c = 0; c < oc; ++c) {
      const float b = bias_[c];
      const float* src = gemm_out.data() + c * wide;
      for (std::size_t s = 0; s < n; ++s) {
        float* dst = out.data() + ((base + s) * oc + c) * ol;
        const float* block = src + s * ol;
        for (std::size_t p = 0; p < ol; ++p) dst[p] = block[p] + b;
      }
    }
  }
  return out;
}

Tensor Conv1d::backward(const Tensor& grad_output) {
  PRIONN_CHECK(!input_.empty())
      << "Conv1d::backward: needs the input of a training forward";
  PRIONN_CHECK(grad_output.rank() == 3 &&
               grad_output.dim(0) == input_.dim(0) &&
               grad_output.dim(1) == out_channels() &&
               grad_output.dim(2) == geom_.out_len())
      << "Conv1d::backward: gradient shape "
      << tensor::shape_to_string(grad_output.shape())
      << " does not match forward geometry (" << input_.dim(0) << ", "
      << out_channels() << ", " << geom_.out_len() << ")";
  const std::size_t batch = grad_output.dim(0);
  const std::size_t pr = geom_.patch_rows();
  const std::size_t ol = geom_.out_len();
  const std::size_t oc = out_channels();
  const std::size_t in_stride = geom_.channels * geom_.length;

  Tensor grad_input(input_.shape());
  const std::size_t chunk =
      std::clamp<std::size_t>(kMaxColsFloats1d / (pr * ol), 1, batch);
  std::vector<float> cols(pr * chunk * ol);
  std::vector<float> dy(oc * chunk * ol);
  std::vector<float> grad_cols(pr * chunk * ol);
  for (std::size_t base = 0; base < batch; base += chunk) {
    const std::size_t n = std::min(chunk, batch - base);
    const std::size_t wide = n * ol;
    for (std::size_t s = 0; s < n; ++s) {
      tensor::im2col_1d_strided(geom_, input_.data() + (base + s) * in_stride,
                                cols.data() + s * ol, wide);
      for (std::size_t c = 0; c < oc; ++c)
        std::copy_n(grad_output.data() + ((base + s) * oc + c) * ol, ol,
                    dy.data() + c * wide + s * ol);
    }
    tensor::gemm_bt(oc, wide, pr, 1.0f, dy.data(), cols.data(), 1.0f,
                    grad_weight_.data());
    for (std::size_t c = 0; c < oc; ++c) {
      const float* lane = dy.data() + c * wide;
      float acc = 0.0f;
      for (std::size_t p = 0; p < wide; ++p) acc += lane[p];
      grad_bias_[c] += acc;
    }
    tensor::gemm_at(pr, oc, wide, 1.0f, weight_.data(), dy.data(), 0.0f,
                    grad_cols.data());
    for (std::size_t s = 0; s < n; ++s)
      tensor::col2im_1d_strided(geom_, grad_cols.data() + s * ol, wide,
                                grad_input.data() + (base + s) * in_stride);
  }
  return grad_input;
}

void Conv1d::save(std::ostream& os) const {
  weight_.save(os);
  bias_.save(os);
  const std::uint64_t stride = stride_, pad = pad_;
  os.write(reinterpret_cast<const char*>(&stride), sizeof(stride));
  os.write(reinterpret_cast<const char*>(&pad), sizeof(pad));
}

std::unique_ptr<Layer> Conv1d::load(std::istream& is) {
  Tensor w = Tensor::load(is);
  Tensor b = Tensor::load(is);
  std::uint64_t stride = 0, pad = 0;
  is.read(reinterpret_cast<char*>(&stride), sizeof(stride));
  is.read(reinterpret_cast<char*>(&pad), sizeof(pad));
  if (!is) throw std::runtime_error("Conv1d::load: truncated stream");
  return std::make_unique<Conv1d>(std::move(w), std::move(b),
                                  static_cast<std::size_t>(stride),
                                  static_cast<std::size_t>(pad));
}

}  // namespace prionn::nn
