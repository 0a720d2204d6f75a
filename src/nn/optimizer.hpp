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

/// Adam (Kingma & Ba 2015) with bias correction and that paper's
/// beta1 = 0.9, beta2 = 0.999, eps = 1e-8; only the learning rate is set.
class Adam {
 public:
  explicit Adam(double lr = 1e-3);
  /// Apply one update given parallel vectors of parameters and gradients.
  void step(const std::vector<tensor::Tensor*>& params,
            const std::vector<tensor::Tensor*>& grads);

  /// Persist / restore the per-parameter moments in the order of `params`
  /// (Network::parameters() order is deterministic, so a checkpointed
  /// warm-start retrain resumes bit-exactly). The learning rate is not
  /// serialised; construct the Adam with the same rate first.
  void save(std::ostream& os,
            const std::vector<tensor::Tensor*>& params) const;
  void load(std::istream& is, const std::vector<tensor::Tensor*>& params);

 private:
  struct Moments {
    tensor::Tensor m, v;
    std::size_t t = 0;
  };
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;
  double lr_;
  std::unordered_map<const tensor::Tensor*, Moments> moments_;
};

}  // namespace prionn::nn
