#include "ml/decision_tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "util/check.hpp"

namespace prionn::ml {

namespace {

/// One sample in a presorted feature column.
struct Entry {
  double x;  // the column's feature value
  double y;  // target
  std::size_t row;
};

}  // namespace

// Every feature's column holds the whole sample, sorted once by (x, y);
// a node owns the same [lo, hi) segment of `rows` and of every column.
// Splitting a node stable-partitions each column's segment, so both
// children's segments stay sorted and the split search never sorts again.
struct DecisionTreeRegressor::Workspace {
  std::vector<std::size_t> rows;
  std::vector<Entry> columns;       // features x rows.size(), feature-major
  std::vector<Entry> scratch;       // one partition's right side
  std::vector<unsigned char> left;  // per dataset row: goes to the left child

  Entry* column(std::size_t f) noexcept {
    return columns.data() + f * rows.size();
  }
};

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
  Workspace ws;
  ws.rows.assign(rows.begin(), rows.end());
  const std::size_t n = rows.size();
  ws.columns.resize(data.features() * n);
  ws.scratch.resize(n);
  ws.left.resize(data.rows());
  for (std::size_t f = 0; f < data.features(); ++f) {
    Entry* col = ws.column(f);
    for (std::size_t i = 0; i < n; ++i)
      col[i] = Entry{data.feature(rows[i], f), data.target(rows[i]), rows[i]};
    // (x, y) order: the scan's running sums add the targets in it.
    std::sort(col, col + n, [](const Entry& a, const Entry& b) {
      return std::tie(a.x, a.y) < std::tie(b.x, b.y);
    });
  }
  build(data, ws, 0, n, 0);
}

std::size_t DecisionTreeRegressor::build(const Dataset& data, Workspace& ws,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t level) {
  std::vector<std::size_t>& rows = ws.rows;
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

  // Best split = maximal reduction of summed squared error. The gain's
  // expressions below decide near-ties between features; how the compiler
  // contracts them into FMAs moves those ties, so they stay as written.
  double best_gain = 1e-12;
  std::size_t best_feature = Node::kLeaf;
  double best_threshold = 0.0;

  for (std::size_t f = 0; f < data.features(); ++f) {
    const Entry* values = ws.column(f) + lo;
    if (values[0].x == values[count - 1].x) continue;

    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = sum, right_sq = sum_sq;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const double y = values[i].y;
      left_sum += y;
      left_sq += y * y;
      right_sum -= y;
      right_sq -= y * y;
      // Only split between distinct feature values.
      if (values[i].x == values[i + 1].x) continue;
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
        best_threshold = 0.5 * (values[i].x + values[i + 1].x);
      }
    }
  }

  if (best_feature == Node::kLeaf) return make_leaf();

  // Partition rows in place around the threshold. Its (unstable) order is
  // the order the children's sum/sum_sq add their targets in.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(lo),
      rows.begin() + static_cast<std::ptrdiff_t>(hi), [&](std::size_t r) {
        return data.feature(r, best_feature) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == lo || mid == hi) return make_leaf();  // numerically degenerate

  // Stable-partition every column's segment the same way. A bootstrap
  // repeats rows, but every copy of a row falls on the same side.
  for (std::size_t i = lo; i < hi; ++i) ws.left[rows[i]] = i < mid;
  for (std::size_t f = 0; f < data.features(); ++f) {
    Entry* col = ws.column(f);
    std::size_t kept = lo, moved = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (ws.left[col[i].row])
        col[kept++] = col[i];
      else
        ws.scratch[moved++] = col[i];
    }
    PRIONN_DCHECK(kept == mid) << "DecisionTreeRegressor: column " << f
                               << " puts " << kept - lo << " rows left, "
                               << "rows put " << mid - lo;
    std::copy_n(ws.scratch.begin(), moved,
                col + static_cast<std::ptrdiff_t>(kept));
  }

  const std::size_t node_index = nodes_.size();
  nodes_.push_back(Node{best_feature, best_threshold, mean, 0, 0});
  const std::size_t left = build(data, ws, lo, mid, level + 1);
  const std::size_t right = build(data, ws, mid, hi, level + 1);
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
