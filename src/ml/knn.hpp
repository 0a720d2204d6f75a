// k-Nearest-Neighbours regressor (Euclidean, brute force with partial
// selection). The weakest of the paper's traditional baselines — label
// encoding puts categorical features on an arbitrary metric, which the
// paper cites as the likely cause.
#pragma once

#include <cstddef>

#include "ml/dataset.hpp"

namespace prionn::ml {

/// The prediction is the unweighted mean target of the k nearest rows.
struct KnnOptions {
  std::size_t k = 5;
};

class KnnRegressor : public Regressor {
 public:
  explicit KnnRegressor(KnnOptions options = {});

  void fit(const Dataset& data) override;
  double predict(std::span<const double> x) const override;

 private:
  KnnOptions options_;
  Dataset train_;
};

}  // namespace prionn::ml
