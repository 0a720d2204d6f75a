// Tests for the traditional-ML substrate (the paper's kNN / DT / RF
// baselines) and its dataset/encoding plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <string>

#include "core/fallback.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/label_encoder.hpp"
#include "ml/random_forest.hpp"
#include "trace/features.hpp"
#include "trace/workload.hpp"
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

// ------------------------------------------------ golden forest digests ---

namespace {

/// FNV-1a over bit patterns, as `Pipeline.TurnaroundBitsMatchGoldenDigests`
/// digests its turnarounds.
class Fnv1a {
 public:
  void add(std::uint64_t bits) {
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h_ ^= bits & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h_;
    return os.str();
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Adds to `h` `trees` bootstrap trees (duplicate rows included), each
/// digested by node_count(), depth() and predict() on every row of `d`;
/// then a forest with `opts`, digested by predict() on every row.
void add_forest(Fnv1a& h, const ml::Dataset& d, std::size_t trees,
                const ml::RandomForestOptions& opts) {
  prionn::util::Rng rng(opts.seed);
  std::vector<std::size_t> rows(d.rows());
  for (std::size_t t = 0; t < trees; ++t) {
    for (auto& r : rows)
      r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(d.rows()) - 1));
    ml::DecisionTreeRegressor tree(opts.tree);
    tree.fit_rows(d, rows);
    h.add(static_cast<std::uint64_t>(tree.node_count()));
    h.add(static_cast<std::uint64_t>(tree.depth()));
    for (std::size_t r = 0; r < d.rows(); ++r) h.add(tree.predict(d.row(r)));
  }
  ml::RandomForestRegressor forest(opts);
  forest.fit(d);
  for (std::size_t r = 0; r < d.rows(); ++r) h.add(forest.predict(d.row(r)));
}

/// Small-integer features and targets with one row in five a copy of an
/// earlier row: ties in x, in y and in whole rows at every node.
ml::Dataset tie_heavy(std::size_t n, std::size_t features, double levels,
                      std::uint64_t seed) {
  prionn::util::Rng rng(seed);
  ml::Dataset d(features);
  std::vector<double> x(features);
  for (std::size_t i = 0; i < n; ++i) {
    double y;
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.2) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      const auto src = d.row(j);
      x.assign(src.begin(), src.end());
      y = d.target(j);
    } else {
      for (auto& v : x) v = std::floor(rng.uniform(0.0, levels));
      y = x[0] + 2.0 * (x[1] > 1.0 ? 1.0 : 0.0) +
          std::floor(rng.uniform(0.0, 3.0));
    }
    d.add_row(x, y);
  }
  return d;
}

}  // namespace

TEST(RandomForest, FitMatchesGoldenDigests) {
  // Recorded before the split search read presorted feature columns;
  // any change to the trees' splits or leaf values moves a digest.
  struct TieCase {
    std::size_t rows, features;
    double levels;
    std::uint64_t seed;
    std::size_t max_depth, min_samples_leaf;
    const char* digest;
  };
  const TieCase tie_cases[] = {
      {200, 4, 3.0, 1, 24, 1, "b7345b525a972d58"},
      {300, 5, 4.0, 2, 6, 2, "0f47d31be26d8417"},
      {250, 3, 2.0, 3, 3, 4, "9f8484af8b6b324a"},
      {400, 6, 5.0, 4, 30, 3, "1eed31c6bf64822b"},
      {150, 2, 3.0, 5, 1, 1, "d5ac56cfe395e4e6"},
  };
  for (const TieCase& c : tie_cases) {
    ml::RandomForestOptions opts;
    opts.trees = 12;
    opts.seed = c.seed;
    opts.tree.max_depth = c.max_depth;
    opts.tree.min_samples_leaf = c.min_samples_leaf;
    Fnv1a h;
    add_forest(h, tie_heavy(c.rows, c.features, c.levels, c.seed), 20, opts);
    EXPECT_EQ(h.hex(), c.digest) << "tie-heavy seed " << c.seed;
  }

  // The serving fallback's three forests on 500-job Cab windows: its
  // answers for every window job, and bootstrap trees on the same rows.
  // The windows encode to the same bits in every build, but where the
  // compiler contracts the split search's multiply-adds into FMAs (the
  // -march=native build on an FMA host) the sums of squared byte targets
  // round differently, so these digests are keyed by that. The small-
  // integer tie-heavy sums above are exact either way.
  struct WindowCase {
    std::uint64_t seed;
    const char* fallback_digest;
    const char* tree_digest;
  };
  const WindowCase window_cases[] = {
#if defined(__FMA__)
      {1, "4487c219475eaa35", "1f4e24e6d1ce9435"},
      {2, "cab1028967094302", "706e39f46a9acc4f"},
#else
      {1, "80433c1cf13c6c87", "0dacade24678e83c"},
      {2, "840ba4b49394a7c7", "82881b1e6d061089"},
#endif
  };
  for (const WindowCase& c : window_cases) {
    prionn::trace::WorkloadGenerator gen(
        prionn::trace::WorkloadOptions::cab(600, c.seed));
    auto jobs = prionn::trace::completed_jobs(gen.generate());
    ASSERT_GE(jobs.size(), 500u);
    jobs.resize(500);

    prionn::core::FallbackPredictor fallback;
    fallback.fit_baseline(jobs);
    Fnv1a answers;
    for (const auto& job : jobs) {
      const auto p = fallback.predict(nullptr, job);
      ASSERT_EQ(p.source, prionn::core::PredictionSource::kRandomForest);
      answers.add(p.value.runtime_minutes);
      answers.add(p.value.bytes_read);
      answers.add(p.value.bytes_written);
    }
    EXPECT_EQ(answers.hex(), c.fallback_digest) << "window seed " << c.seed;

    using Job = prionn::trace::JobRecord;
    double (*const targets[])(const Job&) = {
        [](const Job& j) { return j.runtime_minutes; },
        [](const Job& j) { return j.bytes_read; },
        [](const Job& j) { return j.bytes_written; },
    };
    Fnv1a trees;
    for (const auto target : targets) {
      prionn::trace::FeatureEncoder encoder;
      ml::RandomForestOptions opts;
      opts.trees = 10;
      opts.seed = c.seed;
      add_forest(trees, encoder.encode_jobs(jobs, target), 10, opts);
    }
    EXPECT_EQ(trees.hex(), c.tree_digest) << "window seed " << c.seed;
  }
}
