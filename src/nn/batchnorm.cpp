#include "nn/batchnorm.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace prionn::nn {

BatchNorm::BatchNorm(std::size_t channels, double momentum, double epsilon)
    : gamma_({channels}, 1.0f),
      beta_({channels}),
      grad_gamma_({channels}),
      grad_beta_({channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0f),
      momentum_(momentum),
      epsilon_(epsilon) {
  if (channels == 0) throw std::invalid_argument("BatchNorm: channels > 0");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("BatchNorm: momentum in [0, 1)");
}

BatchNorm::BatchNorm(Tensor gamma, Tensor beta, Tensor running_mean,
                     Tensor running_var, double momentum, double epsilon)
    : gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      grad_gamma_(gamma_.shape()),
      grad_beta_(beta_.shape()),
      running_mean_(std::move(running_mean)),
      running_var_(std::move(running_var)),
      momentum_(momentum),
      epsilon_(epsilon) {
  if (gamma_.rank() != 1 || !gamma_.same_shape(beta_) ||
      !gamma_.same_shape(running_mean_) || !gamma_.same_shape(running_var_))
    throw std::invalid_argument("BatchNorm: inconsistent parameter shapes");
}

Shape BatchNorm::output_shape(const Shape& input) const {
  if (input.empty() || input[0] != channels())
    throw std::invalid_argument(
        "BatchNorm: expected sample with leading channel dim " +
        std::to_string(channels()));
  return input;
}

std::size_t BatchNorm::samples_per_channel(const Tensor& input) const {
  if (input.rank() < 2 || input.dim(1) != channels())
    throw std::invalid_argument("BatchNorm: expected (N, C, ...) batch");
  return input.size() / channels();
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  PRIONN_CHECK(input.rank() >= 2 && input.dim(1) == channels())
      << "BatchNorm::forward: expected (N, " << channels()
      << ", ...) batch, got " << tensor::shape_to_string(input.shape());
  const std::size_t n = input.dim(0);
  const std::size_t c = channels();
  const std::size_t spatial = input.size() / (n * c);
  PRIONN_DCHECK(spatial * n * c == input.size())
      << "BatchNorm::forward: batch size not divisible by channel planes";
  const auto count = static_cast<double>(n * spatial);
  trained_forward_ = training;

  Tensor mean({c}), inv_std({c});
  if (training) {
    // Per-channel batch statistics across batch and spatial dims.
    for (std::size_t ch = 0; ch < c; ++ch) {
      double sum = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        const float* plane = input.data() + (b * c + ch) * spatial;
        for (std::size_t s = 0; s < spatial; ++s) sum += plane[s];
      }
      const double mu = sum / count;
      double var = 0.0;
      for (std::size_t b = 0; b < n; ++b) {
        const float* plane = input.data() + (b * c + ch) * spatial;
        for (std::size_t s = 0; s < spatial; ++s) {
          const double d = plane[s] - mu;
          var += d * d;
        }
      }
      var /= count;
      mean[ch] = static_cast<float>(mu);
      inv_std[ch] = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
      running_mean_[ch] = static_cast<float>(
          momentum_ * running_mean_[ch] + (1.0 - momentum_) * mu);
      running_var_[ch] = static_cast<float>(
          momentum_ * running_var_[ch] + (1.0 - momentum_) * var);
    }
  } else {
    for (std::size_t ch = 0; ch < c; ++ch) {
      mean[ch] = running_mean_[ch];
      inv_std[ch] = static_cast<float>(
          1.0 / std::sqrt(static_cast<double>(running_var_[ch]) + epsilon_));
    }
  }

  Tensor out(input.shape());
  Tensor x_hat(input.shape());
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float mu = mean[ch], is = inv_std[ch];
      const float g = gamma_[ch], bt = beta_[ch];
      const float* src = input.data() + (b * c + ch) * spatial;
      float* xh = x_hat.data() + (b * c + ch) * spatial;
      float* dst = out.data() + (b * c + ch) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        xh[s] = (src[s] - mu) * is;
        dst[s] = g * xh[s] + bt;
      }
    }
  }
  if (training) {
    input_ = input;
    normalized_ = std::move(x_hat);
    batch_mean_ = std::move(mean);
    batch_inv_std_ = std::move(inv_std);
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  PRIONN_CHECK(trained_forward_ && grad_output.same_shape(normalized_))
      << "BatchNorm::backward: needs the state of a training forward; "
         "gradient shape "
      << tensor::shape_to_string(grad_output.shape())
      << " does not match cached forward shape "
      << tensor::shape_to_string(normalized_.shape());
  const std::size_t n = grad_output.dim(0);
  const std::size_t c = channels();
  const std::size_t spatial = grad_output.size() / (n * c);
  const auto count = static_cast<float>(n * spatial);

  Tensor grad_input(grad_output.shape());
  for (std::size_t ch = 0; ch < c; ++ch) {
    // Accumulate the per-channel reductions needed by the BN gradient.
    float sum_dy = 0.0f, sum_dy_xhat = 0.0f;
    for (std::size_t b = 0; b < n; ++b) {
      const float* dy = grad_output.data() + (b * c + ch) * spatial;
      const float* xh = normalized_.data() + (b * c + ch) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        sum_dy += dy[s];
        sum_dy_xhat += dy[s] * xh[s];
      }
    }
    grad_beta_[ch] += sum_dy;
    grad_gamma_[ch] += sum_dy_xhat;

    const float g = gamma_[ch], is = batch_inv_std_[ch];
    for (std::size_t b = 0; b < n; ++b) {
      const float* dy = grad_output.data() + (b * c + ch) * spatial;
      const float* xh = normalized_.data() + (b * c + ch) * spatial;
      float* dx = grad_input.data() + (b * c + ch) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) {
        // dx = gamma * inv_std / m * (m*dy - sum(dy) - x_hat*sum(dy*x_hat))
        dx[s] = g * is / count *
                (count * dy[s] - sum_dy - xh[s] * sum_dy_xhat);
      }
    }
  }
  return grad_input;
}

void BatchNorm::save(std::ostream& os) const {
  gamma_.save(os);
  beta_.save(os);
  running_mean_.save(os);
  running_var_.save(os);
  os.write(reinterpret_cast<const char*>(&momentum_), sizeof(momentum_));
  os.write(reinterpret_cast<const char*>(&epsilon_), sizeof(epsilon_));
}

std::unique_ptr<Layer> BatchNorm::load(std::istream& is) {
  Tensor gamma = Tensor::load(is);
  Tensor beta = Tensor::load(is);
  Tensor mean = Tensor::load(is);
  Tensor var = Tensor::load(is);
  double momentum = 0.0, epsilon = 0.0;
  is.read(reinterpret_cast<char*>(&momentum), sizeof(momentum));
  is.read(reinterpret_cast<char*>(&epsilon), sizeof(epsilon));
  if (!is) throw std::runtime_error("BatchNorm::load: truncated stream");
  return std::make_unique<BatchNorm>(std::move(gamma), std::move(beta),
                                     std::move(mean), std::move(var),
                                     momentum, epsilon);
}

}  // namespace prionn::nn
