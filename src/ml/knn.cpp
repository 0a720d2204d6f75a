#include "ml/knn.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace prionn::ml {

KnnRegressor::KnnRegressor(KnnOptions options) : options_(options) {
  if (options_.k == 0) throw std::invalid_argument("Knn: k must be > 0");
}

void KnnRegressor::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("Knn::fit: empty data");
  train_ = data;
}

double KnnRegressor::predict(std::span<const double> x) const {
  if (train_.empty()) throw std::logic_error("Knn::predict: not fitted");
  if (x.size() != train_.features())
    throw std::invalid_argument("Knn::predict: feature count mismatch");

  std::vector<std::pair<double, double>> dist_target(train_.rows());
  for (std::size_t r = 0; r < train_.rows(); ++r) {
    const auto row = train_.row(r);
    double d2 = 0.0;
    for (std::size_t f = 0; f < x.size(); ++f) {
      const double diff = row[f] - x[f];
      d2 += diff * diff;
    }
    dist_target[r] = {d2, train_.target(r)};
  }
  const std::size_t k = std::min(options_.k, dist_target.size());
  std::partial_sort(dist_target.begin(),
                    dist_target.begin() + static_cast<std::ptrdiff_t>(k),
                    dist_target.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) acc += dist_target[i].second;
  return acc / static_cast<double>(k);
}

}  // namespace prionn::ml
