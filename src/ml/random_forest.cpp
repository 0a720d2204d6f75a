#include "ml/random_forest.hpp"

#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace prionn::ml {

RandomForestRegressor::RandomForestRegressor(RandomForestOptions options)
    : options_(options) {
  if (options_.trees == 0)
    throw std::invalid_argument("RandomForest: need at least one tree");
}

void RandomForestRegressor::fit(const Dataset& data) {
  if (data.empty())
    throw std::invalid_argument("RandomForest::fit: empty data");
  trees_.clear();
  trees_.resize(options_.trees);
  util::Rng seeder(options_.seed);
  // Pre-draw per-tree seeds so the result is deterministic regardless of
  // how the pool schedules the fits.
  std::vector<std::uint64_t> seeds(options_.trees);
  for (auto& s : seeds) s = seeder();

  util::parallel_for(0, options_.trees, [&](std::size_t t) {
    util::Rng rng(seeds[t]);
    std::vector<std::size_t> rows(data.rows());
    for (auto& r : rows)
      r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.rows()) - 1));
    auto tree = std::make_unique<DecisionTreeRegressor>(options_.tree);
    tree->fit_rows(data, rows);
    trees_[t] = std::move(tree);
  });
}

double RandomForestRegressor::predict(std::span<const double> x) const {
  if (trees_.empty())
    throw std::logic_error("RandomForest::predict: not fitted");
  double acc = 0.0;
  for (const auto& tree : trees_) acc += tree->predict(x);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace prionn::ml
