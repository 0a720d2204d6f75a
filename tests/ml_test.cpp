// Tests for the traditional-ML substrate (the paper's kNN / DT / RF
// baselines) and its dataset/encoding plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/label_encoder.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ml = prionn::ml;

// ------------------------------------------------------------- Dataset ---

TEST(Dataset, AddAndAccess) {
  ml::Dataset d(2);
  d.add_row(std::vector<double>{1.0, 2.0}, 10.0);
  d.add_row(std::vector<double>{3.0, 4.0}, 20.0);
  EXPECT_EQ(d.rows(), 2u);
  EXPECT_EQ(d.features(), 2u);
  EXPECT_DOUBLE_EQ(d.feature(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.target(1), 20.0);
  EXPECT_DOUBLE_EQ(d.row(0)[1], 2.0);
}

TEST(Dataset, RejectsWrongWidth) {
  ml::Dataset d(3);
  EXPECT_THROW(d.add_row(std::vector<double>{1.0}, 0.0),
               std::invalid_argument);
}

TEST(Dataset, Subset) {
  ml::Dataset d(1);
  for (int i = 0; i < 5; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)}, i * 10.0);
  const std::vector<std::size_t> idx = {4, 0};
  const auto s = d.subset(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s.target(0), 40.0);
  EXPECT_DOUBLE_EQ(s.target(1), 0.0);
}

// -------------------------------------------------------- LabelEncoder ---

TEST(LabelEncoder, AssignsStableIds) {
  ml::LabelEncoder enc;
  EXPECT_DOUBLE_EQ(enc.encode("alice"), 0.0);
  EXPECT_DOUBLE_EQ(enc.encode("bob"), 1.0);
  EXPECT_DOUBLE_EQ(enc.encode("alice"), 0.0);
  EXPECT_EQ(enc.classes(), 2u);
  EXPECT_EQ(enc.decode(1), "bob");
}

TEST(LabelEncoder, ConstLookupDoesNotInsert) {
  ml::LabelEncoder enc;
  enc.encode("known");
  EXPECT_DOUBLE_EQ(enc.encode_const("known"), 0.0);
  EXPECT_DOUBLE_EQ(enc.encode_const("unknown"), -1.0);
  EXPECT_EQ(enc.classes(), 1u);
}

// -------------------------------------------------------- DecisionTree ---

namespace {

/// y = step function of x0 (+ optional noise): one split suffices.
ml::Dataset step_data(std::size_t n, double noise, std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  ml::Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);  // irrelevant feature
    const double y = (x0 > 0.0 ? 10.0 : -10.0) + noise * rng.normal();
    d.add_row(std::vector<double>{x0, x1}, y);
  }
  return d;
}

}  // namespace

TEST(DecisionTree, FitsConstantTarget) {
  ml::Dataset d(1);
  for (int i = 0; i < 10; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)}, 7.0);
  ml::DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0}), 7.0);
  EXPECT_EQ(tree.node_count(), 1u);  // single leaf, no pointless splits
}

TEST(DecisionTree, FindsTheObviousSplit) {
  const auto d = step_data(200, 0.0, 1);
  ml::DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 0.0}), 10.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{-0.5, 0.0}), -10.0, 1e-9);
}

TEST(DecisionTree, MaxDepthLimitsTree) {
  const auto d = step_data(200, 3.0, 2);
  ml::DecisionTreeOptions opts;
  opts.max_depth = 1;
  ml::DecisionTreeRegressor tree(opts);
  tree.fit(d);
  EXPECT_LE(tree.depth(), 1u);
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const auto d = step_data(20, 1.0, 3);
  ml::DecisionTreeOptions opts;
  opts.min_samples_leaf = 10;
  ml::DecisionTreeRegressor tree(opts);
  tree.fit(d);
  // With 20 rows and a 10-row floor per leaf, depth can be at most 1.
  EXPECT_LE(tree.depth(), 1u);
}

TEST(DecisionTree, MemorisesWithoutConstraints) {
  prionn::util::Rng rng(4);
  ml::Dataset d(1);
  for (int i = 0; i < 64; ++i)
    d.add_row(std::vector<double>{static_cast<double>(i)},
              rng.uniform(0.0, 100.0));
  ml::DecisionTreeRegressor tree;
  tree.fit(d);
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(tree.predict(std::vector<double>{static_cast<double>(i)}),
                d.target(static_cast<std::size_t>(i)), 1e-9);
}

TEST(DecisionTree, UnfittedPredictThrows) {
  ml::DecisionTreeRegressor tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(DecisionTree, EmptyFitThrows) {
  ml::DecisionTreeRegressor tree;
  ml::Dataset d(1);
  EXPECT_THROW(tree.fit(d), std::invalid_argument);
}

// -------------------------------------------------------- RandomForest ---

TEST(RandomForest, BeatsSingleNoisyTreeOutOfSample) {
  // Nonlinear target with noise: averaging should reduce variance.
  prionn::util::Rng rng(5);
  const auto make = [&rng](std::size_t n) {
    ml::Dataset d(3);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(-2.0, 2.0), b = rng.uniform(-2.0, 2.0),
                   c = rng.uniform(-2.0, 2.0);
      const double y = std::sin(a) * 3.0 + b * b + 0.5 * rng.normal();
      d.add_row(std::vector<double>{a, b, c}, y);
    }
    return d;
  };
  const auto train = make(400), test = make(200);

  ml::RandomForestOptions fopts;
  fopts.trees = 40;
  ml::RandomForestRegressor forest(fopts);
  forest.fit(train);

  ml::DecisionTreeRegressor tree;
  tree.fit(train);

  const auto truth = std::vector<double>(test.targets().begin(),
                                         test.targets().end());
  const double forest_mae =
      prionn::util::mean_absolute_error(truth, forest.predict_all(test));
  const double tree_mae =
      prionn::util::mean_absolute_error(truth, tree.predict_all(test));
  EXPECT_LT(forest_mae, tree_mae);
}

TEST(RandomForest, DeterministicForSeed) {
  const auto d = step_data(100, 2.0, 6);
  ml::RandomForestOptions opts;
  opts.trees = 10;
  opts.seed = 99;
  ml::RandomForestRegressor a(opts), b(opts);
  a.fit(d);
  b.fit(d);
  const std::vector<double> x = {0.3, -0.1};
  EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForest, TreeCount) {
  const auto d = step_data(50, 1.0, 7);
  ml::RandomForestOptions opts;
  opts.trees = 7;
  ml::RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForest, RejectsZeroTrees) {
  ml::RandomForestOptions opts;
  opts.trees = 0;
  EXPECT_THROW(ml::RandomForestRegressor{opts}, std::invalid_argument);
}

TEST(RandomForest, UnfittedThrows) {
  ml::RandomForestRegressor forest;
  EXPECT_THROW(forest.predict(std::vector<double>{1.0, 2.0}),
               std::logic_error);
}

// ----------------------------------------------------------------- kNN ---

TEST(Knn, OneNearestNeighbourMemorises) {
  ml::Dataset d(1);
  d.add_row(std::vector<double>{0.0}, 1.0);
  d.add_row(std::vector<double>{10.0}, 2.0);
  ml::KnnOptions opts;
  opts.k = 1;
  ml::KnnRegressor knn(opts);
  knn.fit(d);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{1.0}), 1.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{9.0}), 2.0);
}

TEST(Knn, AveragesKNeighbours) {
  ml::Dataset d(1);
  d.add_row(std::vector<double>{0.0}, 0.0);
  d.add_row(std::vector<double>{1.0}, 10.0);
  d.add_row(std::vector<double>{100.0}, 1000.0);
  ml::KnnOptions opts;
  opts.k = 2;
  ml::KnnRegressor knn(opts);
  knn.fit(d);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5}), 5.0);
}

TEST(Knn, KLargerThanDataClamps) {
  ml::Dataset d(1);
  d.add_row(std::vector<double>{0.0}, 4.0);
  ml::KnnOptions opts;
  opts.k = 100;
  ml::KnnRegressor knn(opts);
  knn.fit(d);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{5.0}), 4.0);
}

TEST(Knn, RejectsBadOptionsAndUsage) {
  ml::KnnOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW(ml::KnnRegressor{zero_k}, std::invalid_argument);
  ml::KnnRegressor knn;
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), std::logic_error);
  ml::Dataset d(2);
  d.add_row(std::vector<double>{1.0, 2.0}, 1.0);
  knn.fit(d);
  EXPECT_THROW(knn.predict(std::vector<double>{1.0}), std::invalid_argument);
}

// -------------------------------------------- comparative sanity check ---

// The paper (section 2.4) finds RF to be the strongest of the three
// traditional baselines on job-like data. Reproduce the ordering on a
// synthetic regression task with categorical-style features.
TEST(Baselines, ForestAtLeastMatchesPeersOnCategoricalData) {
  prionn::util::Rng rng(8);
  const auto make = [&rng](std::size_t n) {
    ml::Dataset d(4);
    for (std::size_t i = 0; i < n; ++i) {
      // Label-encoded categorical features, exactly like Table 1 data.
      const double user = std::floor(rng.uniform(0.0, 20.0));
      const double app = std::floor(rng.uniform(0.0, 8.0));
      const double nodes = std::pow(2.0, std::floor(rng.uniform(0.0, 5.0)));
      const double hours = std::floor(rng.uniform(1.0, 9.0));
      // Runtime depends on app and nodes in a tree-friendly way; the label
      // encoding of `user` carries no metric information (kNN's weakness).
      const double y = (app + 1.0) * 20.0 / std::sqrt(nodes) +
                       hours * 5.0 + rng.normal() * 2.0;
      d.add_row(std::vector<double>{hours, nodes, user, app}, y);
    }
    return d;
  };
  const auto train = make(500), test = make(250);
  const std::vector<double> truth(test.targets().begin(),
                                  test.targets().end());

  ml::RandomForestRegressor rf;
  rf.fit(train);
  ml::DecisionTreeRegressor dt;
  dt.fit(train);
  ml::KnnRegressor knn;
  knn.fit(train);

  const double rf_mae =
      prionn::util::mean_absolute_error(truth, rf.predict_all(test));
  const double dt_mae =
      prionn::util::mean_absolute_error(truth, dt.predict_all(test));
  const double knn_mae =
      prionn::util::mean_absolute_error(truth, knn.predict_all(test));
  EXPECT_LE(rf_mae, dt_mae * 1.05);
  EXPECT_LT(rf_mae, knn_mae);
}
