#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

namespace prionn::nn {

Adam::Adam(double lr) : lr_(lr) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be positive");
}

void Adam::step(const std::vector<tensor::Tensor*>& params,
                const std::vector<tensor::Tensor*>& grads) {
  if (params.size() != grads.size())
    throw std::invalid_argument("Adam::step: param/grad count mismatch");
  for (std::size_t p = 0; p < params.size(); ++p) {
    tensor::Tensor& w = *params[p];
    const tensor::Tensor& g = *grads[p];
    // Parameter and gradient must agree in shape (a mismatch would read
    // out of bounds below), and in checked builds the gradient must be
    // finite, so a diverging update aborts here instead of corrupting
    // the weights.
    PRIONN_CHECK(g.same_shape(w))
        << "Adam::step: gradient " << p << " shape "
        << tensor::shape_to_string(g.shape()) << " != parameter shape "
        << tensor::shape_to_string(w.shape());
    PRIONN_DCHECK_FINITE(g.span())
        << "Adam::step: non-finite gradient for parameter " << p;
    auto [it, inserted] = moments_.try_emplace(params[p]);
    Moments& st = it->second;
    if (inserted || !st.m.same_shape(w)) {
      st.m = tensor::Tensor(w.shape());
      st.v = tensor::Tensor(w.shape());
      st.t = 0;
    }
    ++st.t;
    const auto b1 = static_cast<float>(kBeta1);
    const auto b2 = static_cast<float>(kBeta2);
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(st.t));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(st.t));
    const auto alpha = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
    const auto eps = static_cast<float>(kEps);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const float gi = g[i];
      st.m[i] = b1 * st.m[i] + (1.0f - b1) * gi;
      st.v[i] = b2 * st.v[i] + (1.0f - b2) * gi * gi;
      w[i] -= alpha * st.m[i] / (std::sqrt(st.v[i]) + eps);
    }
  }
}

namespace {

void write_tensor_data(std::ostream& os, const tensor::Tensor& t) {
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(float)));
}

void read_tensor_data(std::istream& is, tensor::Tensor& t) {
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!is) throw std::runtime_error("Adam::load: truncated moment tensor");
}

}  // namespace

void Adam::save(std::ostream& os,
                const std::vector<tensor::Tensor*>& params) const {
  const auto count = static_cast<std::uint64_t>(params.size());
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const tensor::Tensor* p : params) {
    const auto it = moments_.find(p);
    const std::uint8_t has =
        it != moments_.end() && it->second.m.same_shape(*p) ? 1 : 0;
    os.write(reinterpret_cast<const char*>(&has), sizeof(has));
    if (!has) continue;
    const auto t = static_cast<std::uint64_t>(it->second.t);
    os.write(reinterpret_cast<const char*>(&t), sizeof(t));
    write_tensor_data(os, it->second.m);
    write_tensor_data(os, it->second.v);
  }
}

void Adam::load(std::istream& is,
                const std::vector<tensor::Tensor*>& params) {
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!is || count != params.size())
    throw std::runtime_error("Adam::load: parameter count mismatch");
  moments_.clear();
  for (tensor::Tensor* p : params) {
    std::uint8_t has = 0;
    is.read(reinterpret_cast<char*>(&has), sizeof(has));
    if (!is) throw std::runtime_error("Adam::load: truncated stream");
    if (!has) continue;
    Moments st;
    std::uint64_t t = 0;
    is.read(reinterpret_cast<char*>(&t), sizeof(t));
    st.t = static_cast<std::size_t>(t);
    st.m = tensor::Tensor(p->shape());
    st.v = tensor::Tensor(p->shape());
    read_tensor_data(is, st.m);
    read_tensor_data(is, st.v);
    moments_.emplace(p, std::move(st));
  }
}

}  // namespace prionn::nn
