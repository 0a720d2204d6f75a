// Death tests for the PRIONN_CHECK contract macros and a thread-pool
// stress suite sized so a TSan build has real interleavings to examine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using prionn::util::Rng;
using prionn::util::ThreadPool;

class CheckDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    // Death-test children must not inherit live pool threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST(CheckTest, PassingCheckHasNoEffectAndEvaluatesOnce) {
  int evaluations = 0;
  PRIONN_CHECK(++evaluations > 0) << "never shown";
  EXPECT_EQ(evaluations, 1);
}

TEST_F(CheckDeathTest, FailureReportsExpressionAndLocation) {
  EXPECT_DEATH(PRIONN_CHECK(1 == 2),
               "check_test\\.cpp.*PRIONN_CHECK\\(1 == 2\\) failed");
}

TEST_F(CheckDeathTest, FailureCarriesStreamedMessage) {
  const int got = 41;
  EXPECT_DEATH(PRIONN_CHECK(got == 42) << "expected 42, got " << got,
               "expected 42, got 41");
}

TEST_F(CheckDeathTest, CheckFiniteRejectsNanAndInfinity) {
  const double nan = std::nan("");
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(PRIONN_CHECK_FINITE(nan), "non-finite value in `nan`");
  EXPECT_DEATH(PRIONN_CHECK_FINITE(inf), "non-finite value in `inf`");
}

TEST(CheckTest, CheckFiniteAcceptsFiniteScalarsAndSpans) {
  PRIONN_CHECK_FINITE(0.0);
  PRIONN_CHECK_FINITE(-1.5f);
  const std::vector<float> values{1.0f, -2.0f, 0.0f};
  PRIONN_CHECK_FINITE(std::span<const float>(values));
}

TEST_F(CheckDeathTest, CheckFiniteScansSpans) {
  std::vector<float> values(64, 1.0f);
  values[37] = std::numeric_limits<float>::quiet_NaN();
  const std::span<const float> span(values);
  EXPECT_DEATH(PRIONN_CHECK_FINITE(span) << "poisoned buffer",
               "poisoned buffer");
}

#if PRIONN_DCHECK_IS_ON()
TEST_F(CheckDeathTest, DcheckFiresInCheckedBuilds) {
  EXPECT_DEATH(PRIONN_DCHECK(false) << "debug contract", "debug contract");
}
#else
TEST(CheckTest, DisabledDcheckDoesNotEvaluateItsCondition) {
  int evaluations = 0;
  PRIONN_DCHECK(++evaluations > 0) << "never shown";
  EXPECT_EQ(evaluations, 0);
}
#endif

// --- Thread-pool stress -----------------------------------------------
//
// The pool below is always created with more workers than this machine
// may have cores so the signalling paths (generation bump, remaining_
// countdown, cv handoff) are exercised with real contention under TSan.

TEST(ThreadPoolStressTest, EveryIndexVisitedExactlyOnceAcrossManyRounds) {
  ThreadPool pool(4);
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kItems = 97;  // not a multiple of the pool size
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<int> visits(kItems, 0);
    pool.parallel_for(0, kItems, [&](std::size_t i) { ++visits[i]; });
    const int total = std::accumulate(visits.begin(), visits.end(), 0);
    ASSERT_EQ(total, static_cast<int>(kItems)) << "round " << round;
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_EQ(visits[i], 1) << "index " << i << " round " << round;
  }
}

TEST(ThreadPoolStressTest, ChunksPartitionTheRangeExactly) {
  ThreadPool pool(4);
  for (std::size_t items : {1u, 2u, 5u, 64u, 1000u}) {
    std::atomic<std::size_t> covered{0};
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunks(10, 10 + items,
                             [&](std::size_t lo, std::size_t hi) {
                               ASSERT_LT(lo, hi);
                               covered += hi - lo;
                               std::lock_guard lock(m);
                               chunks.emplace_back(lo, hi);
                             });
    EXPECT_EQ(covered.load(), items);
    std::sort(chunks.begin(), chunks.end());
    std::size_t expect_lo = 10;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, expect_lo);  // disjoint and gap-free
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 10 + items);
  }
}

TEST(ThreadPoolStressTest, SharedCounterSeesAllIncrements) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> counter{0};
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kItems = 512;
  for (std::size_t round = 0; round < kRounds; ++round)
    pool.parallel_for(0, kItems,
                      [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), kRounds * kItems);
}

TEST(ThreadPoolStressTest, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [&](std::size_t i) {
                                     if (i == 33)
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool must stay usable after an exceptional round.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 8, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 8);
  }
}

TEST(ThreadPoolStressTest, PerThreadRngChildrenAreIndependent) {
  // The repo-wide idiom for randomness inside parallel regions: pre-draw
  // one child seed per task, never share an Rng across threads. This test
  // pins the idiom down (and gives TSan a target if someone regresses it
  // to a shared generator).
  ThreadPool pool(4);
  Rng parent(1234);
  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> seeds(kTasks);
  for (auto& s : seeds) s = parent();
  std::vector<std::uint64_t> first_draw(kTasks, 0);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    Rng rng(seeds[t]);
    first_draw[t] = rng();
  });
  std::vector<std::uint64_t> sorted = first_draw;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "per-task generators must not repeat each other";

  // Deterministic: a second identical pass reproduces the draws.
  std::vector<std::uint64_t> second_draw(kTasks, 0);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    Rng rng(seeds[t]);
    second_draw[t] = rng();
  });
  EXPECT_EQ(first_draw, second_draw);
}

/// Nested loops: a parallel_for issued from inside a chunk body runs
/// inline on that chunk's thread. Every call completes, every inner index
/// is visited once on its outer chunk's thread, an inner exception reaches
/// the outermost caller, and the pool stays usable.
void expect_nested_loops_run_inline(
    const std::function<void(std::size_t, std::size_t,
                             const std::function<void(std::size_t)>&)>&
        parallel_for) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 37;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> visits(kOuter * kInner);
    std::vector<std::thread::id> outer_thread(kOuter);
    std::vector<std::thread::id> inner_thread(kOuter * kInner);
    parallel_for(0, kOuter, [&](std::size_t o) {
      outer_thread[o] = std::this_thread::get_id();
      parallel_for(0, kInner, [&](std::size_t i) {
        ++visits[o * kInner + i];
        inner_thread[o * kInner + i] = std::this_thread::get_id();
      });
    });
    for (std::size_t o = 0; o < kOuter; ++o) {
      for (std::size_t i = 0; i < kInner; ++i) {
        ASSERT_EQ(visits[o * kInner + i].load(), 1)
            << "outer " << o << " inner " << i << " round " << round;
        ASSERT_EQ(inner_thread[o * kInner + i], outer_thread[o])
            << "outer " << o << " inner " << i << " round " << round;
      }
    }

    EXPECT_THROW(parallel_for(0, kOuter,
                              [&](std::size_t o) {
                                parallel_for(0, kInner, [&](std::size_t i) {
                                  if (o == kOuter - 1 && i == kInner / 2)
                                    throw std::runtime_error("nested boom");
                                });
                              }),
                 std::runtime_error);

    std::atomic<std::size_t> plain{0};
    parallel_for(0, 64, [&](std::size_t) { ++plain; });
    ASSERT_EQ(plain.load(), 64u);
  }
}

TEST(ThreadPoolStressTest, NestedLoopRunsInlineOnItsThread) {
  ThreadPool pool(4);
  expect_nested_loops_run_inline(
      [&pool](std::size_t begin, std::size_t end,
              const std::function<void(std::size_t)>& fn) {
        pool.parallel_for(begin, end, fn);
      });
  // util::parallel_for issues on current(), which is global() here.
  expect_nested_loops_run_inline(
      [](std::size_t begin, std::size_t end,
         const std::function<void(std::size_t)>& fn) {
        prionn::util::parallel_for(begin, end, fn);
      });
  // So does the non-waiting entry point, outer and inner.
  expect_nested_loops_run_inline(
      [&pool](std::size_t begin, std::size_t end,
              const std::function<void(std::size_t)>& fn) {
        pool.try_parallel_for(begin, end, fn);
      });
}

/// A loop that holds `pool` from construction until release(): its
/// index 0 parks on a latch, so the loop keeps the submission lock.
class ParkedLoop {
 public:
  explicit ParkedLoop(ThreadPool& pool)
      : thread_([this, &pool] {
          pool.parallel_for(0, 2, [this](std::size_t i) {
            if (i != 0) return;
            held_.count_down();
            release_.wait();
          });
          done_ = true;
        }) {
    held_.wait();
  }
  ~ParkedLoop() { release(); }
  ParkedLoop(const ParkedLoop&) = delete;
  ParkedLoop& operator=(const ParkedLoop&) = delete;

  bool done() const { return done_.load(); }
  void release() {
    if (!thread_.joinable()) return;
    release_.count_down();
    thread_.join();
  }

 private:
  std::latch held_{1};
  std::latch release_{1};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Runs a 64-index loop on `pool` and reports whether some index ran off
/// the calling thread: chunk k of a loop that fans out runs on worker k.
bool fans_out(ThreadPool& pool) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  return std::count(ran_on.begin(), ran_on.end(), caller) !=
         static_cast<std::ptrdiff_t>(ran_on.size());
}

TEST(ThreadPoolStressTest, TryParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t items : {1u, 2u, 3u, 5u, 97u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> visits(items);
      EXPECT_TRUE(pool.try_parallel_for(
          10, 10 + items, [&](std::size_t i) { ++visits[i - 10]; }));
      for (std::size_t i = 0; i < items; ++i)
        ASSERT_EQ(visits[i].load(), 1)
            << "index " << i << " of " << items << " round " << round;
    }
  }
  EXPECT_TRUE(pool.try_parallel_for(5, 5, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolStressTest, TryParallelForOneIndexLetsItsLoopsFanOut) {
  // A one-index loop on an idle pool runs its body as a plain call, as
  // parallel_for does, so the body's own loops still use the workers.
  ThreadPool pool(4);
  bool inner_fanned_out = false;
  EXPECT_TRUE(pool.try_parallel_for(
      0, 1, [&](std::size_t) { inner_fanned_out = fans_out(pool); }));
  EXPECT_TRUE(inner_fanned_out);
}

TEST(ThreadPoolStressTest, TryParallelForRunsInlineWhileThePoolIsBusy) {
  ThreadPool pool(4);
  ParkedLoop parked(pool);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(97);
  std::vector<int> visits(ran_on.size(), 0);
  std::vector<bool> nested_fanned(ran_on.size(), false);
  EXPECT_FALSE(pool.try_parallel_for(0, ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    ++visits[i];
    // The inline run is one chunk: a loop it issues is nested, runs
    // inline as well, and so does not report the busy pool.
    nested_fanned[i] = pool.try_parallel_for(0, 3, [](std::size_t) {});
  }));
  // It returned while the other loop still holds the pool.
  EXPECT_FALSE(parked.done());
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
    EXPECT_EQ(visits[i], 1) << "index " << i;
    EXPECT_TRUE(nested_fanned[i]) << "index " << i;
  }
  parked.release();
  EXPECT_TRUE(parked.done());
  EXPECT_TRUE(pool.try_parallel_for(0, 8, [](std::size_t) {}));
  EXPECT_TRUE(fans_out(pool));
}

TEST(ThreadPoolStressTest, TryParallelForPropagatesAndReleasesThePool) {
  ThreadPool pool(4);
  const auto boom = [](std::size_t i) {
    if (i == 33) throw std::runtime_error("boom");
  };
  for (int round = 0; round < 20; ++round) {
    // Fanned out: the submission lock is released on the throwing path,
    // so the next loop on the pool fans out rather than deadlocks.
    EXPECT_THROW(pool.try_parallel_for(0, 64, boom), std::runtime_error);
    ASSERT_TRUE(fans_out(pool)) << "round " << round;
  }
  {
    // Inline because busy: the exception leaves this thread outside any
    // chunk, so its later loops still fan out.
    ParkedLoop parked(pool);
    EXPECT_THROW(pool.try_parallel_for(0, 64, boom), std::runtime_error);
  }
  EXPECT_TRUE(fans_out(pool));
}

TEST(ThreadPoolStressTest, GlobalPoolHandlesEmptyAndTinyRanges) {
  prionn::util::parallel_for(5, 5, [](std::size_t) { FAIL(); });
  std::atomic<int> hits{0};
  prionn::util::parallel_for(0, 1, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 1);
}

}  // namespace
