// The Adam optimiser. Its state (the moments) is keyed by parameter
// identity, so the same optimiser object can keep driving a network across
// the paper's warm-start retraining events.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.hpp"

namespace prionn::nn {

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0);
  /// Apply one update given parallel vectors of parameters and gradients.
  void step(const std::vector<tensor::Tensor*>& params,
            const std::vector<tensor::Tensor*>& grads);
  double learning_rate() const noexcept { return lr_; }
  void set_learning_rate(double lr) noexcept { lr_ = lr; }

  /// Persist / restore the per-parameter moments in the order of `params`
  /// (Network::parameters() order is deterministic, so a checkpointed
  /// warm-start retrain resumes bit-exactly). Hyper-parameters are not
  /// serialised; construct the Adam with the same options first.
  void save(std::ostream& os,
            const std::vector<tensor::Tensor*>& params) const;
  void load(std::istream& is, const std::vector<tensor::Tensor*>& params);

 private:
  struct Moments {
    tensor::Tensor m, v;
    std::size_t t = 0;
  };
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  std::unordered_map<const tensor::Tensor*, Moments> moments_;
};

}  // namespace prionn::nn
