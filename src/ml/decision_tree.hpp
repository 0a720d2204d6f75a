// CART regression tree: greedy variance-reduction splits on numeric
// features. One of the paper's three traditional baselines and the building
// block of the Random Forest.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace prionn::ml {

/// Every split examines every feature.
struct DecisionTreeOptions {
  std::size_t max_depth = 24;
  std::size_t min_samples_leaf = 1;
};

class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(DecisionTreeOptions options = {});

  void fit(const Dataset& data) override;
  /// Fit on a row subset (shared by the forest's bootstrap samples).
  void fit_rows(const Dataset& data, std::span<const std::size_t> rows);
  double predict(std::span<const double> x) const override;

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t depth() const noexcept { return depth_; }

 private:
  struct Node {
    // Leaf when feature == kLeaf.
    std::size_t feature = kLeaf;
    double threshold = 0.0;
    double value = 0.0;  // mean target (leaves)
    std::size_t left = 0, right = 0;
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
  };

  // Per-fit scratch: the sample's rows and its presorted feature columns.
  struct Workspace;

  std::size_t build(const Dataset& data, Workspace& ws, std::size_t lo,
                    std::size_t hi, std::size_t level);

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
};

}  // namespace prionn::ml
