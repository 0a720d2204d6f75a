#include "nn/network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace prionn::nn {

Network& Network::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->parameter_count();
  return n;
}

Shape Network::output_shape(Shape input) const {
  for (const auto& l : layers_) input = l->output_shape(input);
  return input;
}

Tensor Network::forward(const Tensor& batch, bool training) {
  if (layers_.empty()) return batch;
  // The first layer reads the caller's batch in place; each later one
  // reads its predecessor's output.
  Tensor x;
  const Tensor* in = &batch;
  for (const auto& l : layers_) {
    x = l->forward(*in, training);
    in = &x;
  }
  return x;
}

Tensor Network::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Network::zero_gradients() {
  for (const auto& l : layers_) l->zero_gradients();
}

std::vector<Tensor*> Network::parameters() const {
  std::vector<Tensor*> out;
  for (const auto& l : layers_)
    for (Tensor* p : l->parameters()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Network::gradients() const {
  std::vector<Tensor*> out;
  for (const auto& l : layers_)
    for (Tensor* g : l->gradients()) out.push_back(g);
  return out;
}

Tensor Network::gather(const Tensor& batch,
                       std::span<const std::size_t> idx) {
  const std::size_t sample = batch.size() / batch.dim(0);
  Shape shape = batch.shape();
  shape[0] = idx.size();
  Tensor out(std::move(shape));
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::copy_n(batch.data() + idx[i] * sample, sample,
                out.data() + i * sample);
  return out;
}

double Network::train_batch(const Tensor& inputs,
                            std::span<const std::uint32_t> labels,
                            Adam& opt, double max_gradient_norm) {
  zero_gradients();
  const Tensor logits = forward(inputs, /*training=*/true);
  LossResult loss = softmax_cross_entropy(logits, labels);
  backward(loss.grad);
  if (max_gradient_norm > 0.0) {
    double sq = 0.0;
    for (const Tensor* g : gradients())
      for (const float v : g->span()) sq += static_cast<double>(v) * v;
    const double norm = std::sqrt(sq);
    if (!std::isfinite(norm) || norm > max_gradient_norm)
      throw TrainingDiverged("Network::train_batch: gradient norm " +
                             std::to_string(norm) + " exceeds limit " +
                             std::to_string(max_gradient_norm));
  }
  opt.step(parameters(), gradients());
  return loss.value;
}

FitReport Network::fit(const Tensor& inputs,
                       std::span<const std::uint32_t> labels, Adam& opt,
                       const FitOptions& options) {
  const std::size_t n = inputs.dim(0);
  if (labels.size() != n)
    throw std::invalid_argument("Network::fit: label count mismatch");
  if (options.batch_size == 0)
    throw std::invalid_argument("Network::fit: batch_size must be > 0");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(options.shuffle_seed);

  FitReport report;
  report.epoch_loss.reserve(options.epochs);
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += options.batch_size) {
      const std::size_t count = std::min(options.batch_size, n - start);
      const std::span<const std::size_t> idx(order.data() + start, count);
      const Tensor x = gather(inputs, idx);
      std::vector<std::uint32_t> y(count);
      for (std::size_t i = 0; i < count; ++i) y[i] = labels[idx[i]];
      loss_sum += train_batch(x, y, opt, options.max_gradient_norm);
      ++batches;
    }
    report.epoch_loss.push_back(
        batches ? loss_sum / static_cast<double>(batches) : 0.0);
  }
  return report;
}

std::vector<Network::Top1> Network::predict_top1(const Tensor& inputs) {
  const Tensor logits = forward(inputs, /*training=*/false);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  std::vector<Top1> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const float> row(logits.data() + i * c, c);
    const std::size_t cls = tensor::argmax(row);
    // Stable softmax anchored at the winning logit: the argmax logit is
    // the row maximum, so every exponent is <= 0 and the sum is >= 1.
    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j)
      denom += std::exp(static_cast<double>(row[j]) -
                        static_cast<double>(row[cls]));
    out[i].cls = static_cast<std::uint32_t>(cls);
    out[i].probability = 1.0 / denom;
  }
  return out;
}

void Network::save(std::ostream& os) const { save_network(os, *this); }

Network Network::load(std::istream& is) { return load_network(is); }

}  // namespace prionn::nn
