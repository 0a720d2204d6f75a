// Random Forest regressor: bagged CART trees. The paper identifies RF as
// the strongest traditional baseline and compares PRIONN against it
// throughout.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/decision_tree.hpp"

namespace prionn::ml {

/// Each tree draws a bootstrap sample of as many rows as the data holds;
/// that is its only source of diversity, as in scikit-learn's default
/// regression forest.
struct RandomForestOptions {
  std::size_t trees = 50;
  DecisionTreeOptions tree;
  std::uint64_t seed = 13;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(RandomForestOptions options = {});

  void fit(const Dataset& data) override;
  double predict(std::span<const double> x) const override;

  std::size_t tree_count() const noexcept { return trees_.size(); }

 private:
  RandomForestOptions options_;
  std::vector<std::unique_ptr<DecisionTreeRegressor>> trees_;
};

}  // namespace prionn::ml
