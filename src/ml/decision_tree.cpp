#include "ml/decision_tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace prionn::ml {

DecisionTreeRegressor::DecisionTreeRegressor(DecisionTreeOptions options)
    : options_(options) {}

void DecisionTreeRegressor::fit(const Dataset& data) {
  std::vector<std::size_t> rows(data.rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_rows(data, rows);
}

void DecisionTreeRegressor::fit_rows(const Dataset& data,
                                     std::span<const std::size_t> rows) {
  if (rows.empty())
    throw std::invalid_argument("DecisionTreeRegressor::fit: empty data");
  nodes_.clear();
  depth_ = 0;
  std::vector<std::size_t> work(rows.begin(), rows.end());
  build(data, work, 0, work.size(), 0);
}

std::size_t DecisionTreeRegressor::build(const Dataset& data,
                                         std::vector<std::size_t>& rows,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t level) {
  depth_ = std::max(depth_, level);
  const std::size_t count = hi - lo;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double y = data.target(rows[i]);
    sum += y;
    sum_sq += y * y;
  }
  const double mean = sum / static_cast<double>(count);
  const double sse = sum_sq - sum * mean;  // total squared error around mean

  const auto make_leaf = [&]() {
    nodes_.push_back(Node{Node::kLeaf, 0.0, mean, 0, 0});
    return nodes_.size() - 1;
  };

  // A single row needs no guard here: it has no two distinct feature
  // values to split between, so the search below finds no split.
  if (level >= options_.max_depth || sse <= 1e-12) return make_leaf();

  // Best split = maximal reduction of summed squared error.
  double best_gain = 1e-12;
  std::size_t best_feature = Node::kLeaf;
  double best_threshold = 0.0;

  std::vector<std::pair<double, double>> values;  // (x_f, y)
  values.reserve(count);
  for (std::size_t f = 0; f < data.features(); ++f) {
    values.clear();
    for (std::size_t i = lo; i < hi; ++i)
      values.emplace_back(data.feature(rows[i], f), data.target(rows[i]));
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;

    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = sum, right_sq = sum_sq;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const double y = values[i].second;
      left_sum += y;
      left_sq += y * y;
      right_sum -= y;
      right_sq -= y * y;
      // Only split between distinct feature values.
      if (values[i].first == values[i + 1].first) continue;
      const std::size_t nl = i + 1, nr = count - nl;
      if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf)
        continue;
      const double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
      const double sse_r =
          right_sq - right_sum * right_sum / static_cast<double>(nr);
      const double gain = sse - sse_l - sse_r;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (values[i].first + values[i + 1].first);
      }
    }
  }

  if (best_feature == Node::kLeaf) return make_leaf();

  // Partition rows in place around the threshold.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(lo),
      rows.begin() + static_cast<std::ptrdiff_t>(hi), [&](std::size_t r) {
        return data.feature(r, best_feature) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == lo || mid == hi) return make_leaf();  // numerically degenerate

  const std::size_t node_index = nodes_.size();
  nodes_.push_back(Node{best_feature, best_threshold, mean, 0, 0});
  const std::size_t left = build(data, rows, lo, mid, level + 1);
  const std::size_t right = build(data, rows, mid, hi, level + 1);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTreeRegressor::predict(std::span<const double> x) const {
  if (nodes_.empty())
    throw std::logic_error("DecisionTreeRegressor::predict: not fitted");
  std::size_t i = 0;
  for (;;) {
    const Node& n = nodes_[i];
    if (n.feature == Node::kLeaf) return n.value;
    i = x[n.feature] <= n.threshold ? n.left : n.right;
  }
}

}  // namespace prionn::ml
