// Tests for the cluster simulator, snapshot turnaround prediction, the IO
// timeline, and burst detection/scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "obs/obs.hpp"
#include "sched/burst.hpp"
#include "sched/cluster.hpp"
#include "sched/io_aware.hpp"
#include "sched/io_timeline.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace sc = prionn::sched;

namespace {

sc::SimJob job(std::uint64_t id, double submit, std::uint32_t nodes,
               double runtime, double believed = -1.0) {
  return {id, submit, nodes, runtime, believed < 0.0 ? runtime : believed};
}

std::map<std::uint64_t, sc::ScheduledJob> by_id(
    const std::vector<sc::ScheduledJob>& xs) {
  std::map<std::uint64_t, sc::ScheduledJob> m;
  for (const auto& x : xs) m[x.id] = x;
  return m;
}

}  // namespace

// ---------------------------------------------------------- simulator ---

TEST(Cluster, SingleJobStartsImmediately) {
  sc::ClusterSimulator sim({4});
  const auto sched = sim.run({job(1, 10.0, 2, 100.0)});
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_DOUBLE_EQ(sched[0].start_time, 10.0);
  EXPECT_DOUBLE_EQ(sched[0].end_time, 110.0);
  EXPECT_DOUBLE_EQ(sched[0].turnaround(), 100.0);
}

TEST(Cluster, ParallelJobsShareNodes) {
  sc::ClusterSimulator sim({4});
  const auto sched =
      by_id(sim.run({job(1, 0.0, 2, 100.0), job(2, 0.0, 2, 100.0)}));
  EXPECT_DOUBLE_EQ(sched.at(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 0.0);
}

TEST(Cluster, QueuedJobWaitsForNodes) {
  sc::ClusterSimulator sim({4});
  const auto sched =
      by_id(sim.run({job(1, 0.0, 4, 100.0), job(2, 1.0, 4, 50.0)}));
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(sched.at(2).turnaround(), 149.0);
}

TEST(Cluster, FcfsOrderPreservedWithoutBackfillOpportunity) {
  sc::ClusterSimulator sim({2});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 2, 100.0),
      job(2, 1.0, 2, 10.0),
      job(3, 2.0, 2, 10.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 110.0);
}

TEST(Cluster, EasyBackfillFillsHoles) {
  // Head job (2) needs the whole machine and must wait for job 1; a short
  // 1-node job (3) can run in the hole without delaying 2's reservation.
  sc::ClusterSimulator sim({4});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 50.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 2.0);   // backfilled at submit
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);  // reservation kept
}

TEST(Cluster, BackfillRespectsShadowTime) {
  // The backfill candidate (3) is long (believed): starting it would delay
  // the head job's reservation, so EASY must *not* start it in the hole —
  // it uses a node the head job needs at shadow time.
  sc::ClusterSimulator sim({4});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 500.0),
  }));
  EXPECT_GE(sched.at(3).start_time, 100.0);
}

TEST(Cluster, WrongBelievedRuntimeChangesBackfill) {
  // Same workload as above, but job 3 *claims* to be short (believed 10 s)
  // while actually running 500 s: EASY backfills it based on the claim and
  // the head job is delayed — the mechanism by which bad user estimates
  // hurt schedules (and PRIONN's motivation).
  sc::ClusterSimulator sim({4});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 500.0, 10.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 2.0);
  EXPECT_GT(sched.at(2).start_time, 100.0);
}

TEST(Cluster, CapacityNeverExceeded) {
  // Property: reconstructing node usage from the schedule never exceeds
  // the machine size.
  prionn::util::Rng rng(5);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    t += rng.exponential(0.05);
    jobs.push_back(job(i, t, static_cast<std::uint32_t>(rng.uniform_int(1, 16)),
                       rng.uniform(10.0, 500.0)));
  }
  sc::ClusterSimulator sim({16});
  const auto sched = sim.run(jobs);
  ASSERT_EQ(sched.size(), jobs.size());

  std::vector<std::pair<double, std::int64_t>> events;
  for (const auto& s : sched) {
    const auto nodes = static_cast<std::int64_t>(jobs[s.id].nodes);
    events.emplace_back(s.start_time, nodes);
    events.emplace_back(s.end_time, -nodes);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              // Process releases before acquisitions at equal instants.
              return a.first < b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  std::int64_t used = 0;
  for (const auto& [time, delta] : events) {
    used += delta;
    EXPECT_LE(used, 16);
    EXPECT_GE(used, 0);
  }
}

TEST(Cluster, StartNeverBeforeSubmit) {
  prionn::util::Rng rng(6);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    t += rng.exponential(0.1);
    jobs.push_back(job(i, t, 1 + static_cast<std::uint32_t>(i % 4),
                       rng.uniform(5.0, 100.0)));
  }
  sc::ClusterSimulator sim({8});
  for (const auto& s : sim.run(jobs))
    EXPECT_GE(s.start_time, s.submit_time);
}

TEST(Cluster, OutOfOrderSubmissionThrows) {
  sc::ClusterSimulator sim({4});
  sim.submit(job(1, 100.0, 1, 10.0));
  EXPECT_THROW(sim.submit(job(2, 50.0, 1, 10.0)), std::invalid_argument);
}

TEST(Cluster, OversizedJobThrows) {
  sc::ClusterSimulator sim({4});
  EXPECT_THROW(sim.run({job(1, 0.0, 5, 10.0)}), std::invalid_argument);
}

TEST(Cluster, ZeroNodeClusterRejected) {
  EXPECT_THROW(sc::ClusterSimulator({0}), std::invalid_argument);
}

TEST(Cluster, DrainLeavesIdleSystem) {
  sc::ClusterSimulator sim({2});
  sim.submit(job(1, 0.0, 1, 50.0));
  sim.submit(job(2, 0.0, 1, 70.0));
  sim.drain();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.completed().size(), 2u);
  EXPECT_EQ(sim.free_nodes(), 2u);
}

// ------------------------------------------- snapshot turnaround (4.2) ---

TEST(Snapshot, PerfectPredictionsValidAndExactForFinalJob) {
  // Even with the actual runtimes, a snapshot cannot anticipate *future*
  // arrivals, and EASY backfill is non-monotone in the job set (Graham's
  // scheduling anomalies: an extra job can speed up or slow down another
  // job's completion). What IS guaranteed: every prediction is positive
  // and finite, and the prediction for the final submission — after which
  // nothing else arrives — reproduces the realised turnaround exactly.
  prionn::util::Rng rng(7);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    t += rng.exponential(0.02);
    jobs.push_back(job(i, t, static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                       rng.uniform(30.0, 900.0)));
  }
  const auto actual_runtime = [&](std::uint64_t id) {
    return jobs[id].runtime;
  };

  sc::ClusterSimulator sim({8});
  std::vector<double> predicted(jobs.size());
  for (const auto& j : jobs) {
    sim.submit(j);
    predicted[j.id] = sim.snapshot_turnaround(j.id, actual_runtime);
    EXPECT_GE(predicted[j.id], j.runtime - 2.0) << "job " << j.id;
    EXPECT_LT(predicted[j.id], 1e9) << "job " << j.id;
  }
  sim.drain();
  const std::uint64_t last = jobs.back().id;
  for (const auto& s : sim.completed()) {
    if (s.id == last) {
      EXPECT_NEAR(predicted[last], s.turnaround(), 2.0);
    }
  }
}

TEST(Snapshot, ExactWhenNoContention) {
  // On an uncontended machine every snapshot prediction is exact: the job
  // starts immediately and runs for its (perfectly predicted) runtime.
  sc::ClusterSimulator sim({64});
  std::vector<sc::SimJob> jobs;
  for (std::uint64_t i = 0; i < 20; ++i)
    jobs.push_back(job(i, static_cast<double>(i), 1, 100.0 + 5.0 * i));
  std::vector<double> predicted(jobs.size());
  for (const auto& j : jobs) {
    sim.submit(j);
    predicted[j.id] =
        sim.snapshot_turnaround(j.id, [&](std::uint64_t id) {
          return jobs[id].runtime;
        });
  }
  sim.drain();
  for (const auto& s : sim.completed())
    EXPECT_NEAR(predicted[s.id], s.turnaround(), 1.5);
}

TEST(Snapshot, UnknownJobReturnsNegative) {
  sc::ClusterSimulator sim({4});
  const auto one = [](std::uint64_t) { return 1.0; };
  EXPECT_LT(sim.snapshot_turnaround(1, one), 0.0);  // empty system
  sim.submit(job(1, 0.0, 1, 10.0));
  EXPECT_LT(sim.snapshot_turnaround(999, one), 0.0);
  sim.submit(job(2, 1.0, 4, 10.0));
  sim.submit(job(3, 2.0, 4, 10.0));
  ASSERT_EQ(sim.queued_count(), 2u);
  EXPECT_LT(sim.snapshot_turnaround(999, one), 0.0);
  // A completed job is no longer live.
  sim.advance_to(12.0);
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_LT(sim.snapshot_turnaround(1, one), 0.0);
}

TEST(Snapshot, DoesNotPerturbLiveSimulation) {
  sc::ClusterSimulator sim({4});
  sim.submit(job(3, 0.0, 1, 0.5));  // ends at 1.0 (one-second floor)
  sim.submit(job(1, 0.0, 2, 100.0));
  sim.submit(job(2, 1.0, 4, 50.0));
  const auto before_queue = sim.queued_count();
  const auto before_now = sim.now();
  const auto before_completed = sim.completed().size();
  const auto before_free = sim.free_nodes();
  const auto before_running = sim.running_count();
  ASSERT_EQ(before_completed, 1u);
  ASSERT_EQ(before_running, 1u);
  // Queued target (replayed) and running target (answered directly).
  (void)sim.snapshot_turnaround(2, [](std::uint64_t) { return 1000.0; });
  (void)sim.snapshot_turnaround(1, [](std::uint64_t) { return 1000.0; });
  EXPECT_EQ(sim.queued_count(), before_queue);
  EXPECT_DOUBLE_EQ(sim.now(), before_now);
  EXPECT_EQ(sim.completed().size(), before_completed);
  EXPECT_EQ(sim.free_nodes(), before_free);
  EXPECT_EQ(sim.running_count(), before_running);
  sim.drain();
  EXPECT_EQ(sim.completed().size(), 3u);
}

TEST(Snapshot, RunningTargetAnswersFromItsOwnPrediction) {
  // A running target ends at now + max(1, predicted - elapsed), whatever
  // is queued behind it.
  sc::ClusterSimulator sim({4});
  sim.submit(job(1, 0.25, 2, 100.0));
  sim.submit(job(2, 3.5, 4, 50.0));  // queued behind job 1
  sim.advance_to(30.7);
  const double elapsed = 30.7 - 0.25;
  for (const double p : {80.3, 31.0, 5.0}) {
    const double want = 30.7 + std::max(1.0, p - elapsed) - 0.25;
    EXPECT_EQ(sim.snapshot_turnaround(1, [&](std::uint64_t) { return p; }),
              want)
        << p;
  }
}

TEST(Snapshot, QueuedTargetStartsThroughBackfill) {
  // Job 3 waits behind a blocked whole-machine head (job 2). When job 1
  // ends at t = 20 the head still waits for job 4 (shadow time 100), and
  // job 3, believed to end by t = 50, backfills.
  const std::map<std::uint64_t, double> runtime = {
      {1, 20.0}, {2, 50.0}, {3, 30.0}, {4, 100.0}};
  const auto predicted = [&](std::uint64_t id) { return runtime.at(id); };
  sc::ClusterSimulator sim({4});
  sim.submit(job(1, 0.0, 2, 20.0));
  sim.submit(job(4, 0.0, 2, 100.0));
  sim.submit(job(2, 1.0, 4, 50.0));
  sim.submit(job(3, 2.0, 2, 30.0));
  ASSERT_EQ(sim.queued_count(), 2u);
  const double answer = sim.snapshot_turnaround(3, predicted);
  EXPECT_EQ(answer, 20.0 + 30.0 - 2.0);
  sim.drain();  // no later arrivals: the live schedule agrees
  EXPECT_EQ(by_id(sim.completed()).at(3).turnaround(), answer);
}

#if PRIONN_OBS_ENABLED
TEST(Snapshot, ReplayStepsStopAtTargetStart) {
  // Integer times and exact estimates make each query's clone the live
  // simulator itself, drained with no later arrivals. A copy of the live
  // simulator therefore shows when the target starts and which
  // completions come first: the replay steps at most once per distinct
  // completion time up to that start, and not at all for a target that
  // is already running.
  auto& steps = prionn::obs::registry().counter(
      "prionn_sched_snapshot_replay_steps_total");
  prionn::util::Rng rng(11);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    t += std::round(rng.exponential(0.05));
    jobs.push_back(job(i, t, static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                       std::round(rng.uniform(30.0, 900.0))));
  }
  const auto actual = [&](std::uint64_t id) { return jobs[id].runtime; };

  sc::ClusterSimulator sim({8});
  std::uint64_t replay_steps = 0;
  for (const auto& j : jobs) {
    sim.submit(j);
    const std::uint64_t before = steps.value();
    const double answer = sim.snapshot_turnaround(j.id, actual);
    const std::uint64_t taken = steps.value() - before;

    sc::ClusterSimulator future = sim;
    future.drain();
    const auto& done = future.completed();
    const auto first_new =
        done.begin() + static_cast<std::ptrdiff_t>(sim.completed().size());
    const auto target = std::find_if(
        first_new, done.end(),
        [&](const sc::ScheduledJob& s) { return s.id == j.id; });
    ASSERT_NE(target, done.end());
    EXPECT_EQ(answer, target->turnaround()) << "job " << j.id;
    std::set<double> ends_before_start;
    for (auto it = first_new; it != done.end(); ++it)
      if (it->end_time <= target->start_time)
        ends_before_start.insert(it->end_time);
    EXPECT_LE(taken, ends_before_start.size()) << "job " << j.id;
    if (target->start_time <= sim.now()) {
      EXPECT_EQ(taken, 0u) << "job " << j.id;
    }
    replay_steps += taken;
  }
  EXPECT_GT(replay_steps, 0u);  // the trace does queue jobs
}
#endif  // PRIONN_OBS_ENABLED

TEST(Snapshot, BadPredictionsShiftTurnaround) {
  // If predictions say the running job is nearly done, the queued job's
  // predicted turnaround must be far smaller than reality.
  sc::ClusterSimulator sim({4});
  sim.submit(job(1, 0.0, 4, 1000.0));
  sim.submit(job(2, 1.0, 4, 10.0));
  const double optimistic =
      sim.snapshot_turnaround(2, [](std::uint64_t) { return 5.0; });
  const double realistic =
      sim.snapshot_turnaround(2, [](std::uint64_t id) {
        return id == 1 ? 1000.0 : 10.0;
      });
  EXPECT_LT(optimistic, realistic);
}

// ----------------------------------------------------------- timeline ---

TEST(IoTimeline, SingleIntervalFullBuckets) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 120.0, 100.0});
  ASSERT_EQ(tl.buckets(), 2u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 100.0);
  EXPECT_DOUBLE_EQ(tl.series()[1], 100.0);
}

TEST(IoTimeline, PartialBucketsProRated) {
  sc::IoTimeline tl(60.0);
  tl.add({30.0, 90.0, 100.0});
  ASSERT_EQ(tl.buckets(), 2u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 50.0);
  EXPECT_DOUBLE_EQ(tl.series()[1], 50.0);
}

TEST(IoTimeline, OverlappingIntervalsSum) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 60.0, 10.0});
  tl.add({0.0, 60.0, 30.0});
  EXPECT_DOUBLE_EQ(tl.series()[0], 40.0);
}

TEST(IoTimeline, DegenerateIntervalsIgnored) {
  sc::IoTimeline tl(60.0);
  tl.add({100.0, 100.0, 50.0});
  tl.add({100.0, 50.0, 50.0});
  tl.add({0.0, 60.0, 0.0});
  EXPECT_EQ(tl.buckets(), 0u);
}

TEST(IoTimeline, NegativeStartClamped) {
  sc::IoTimeline tl(60.0);
  tl.add({-30.0, 60.0, 100.0});
  ASSERT_EQ(tl.buckets(), 1u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 100.0);
}

TEST(IoTimeline, ResizeAligns) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 60.0, 5.0});
  tl.resize(4);
  EXPECT_EQ(tl.buckets(), 4u);
  EXPECT_DOUBLE_EQ(tl.series()[3], 0.0);
}

TEST(IoTimeline, RejectsBadBucketSize) {
  EXPECT_THROW(sc::IoTimeline(0.0), std::invalid_argument);
}

// -------------------------------------------------------------- bursts ---

TEST(Burst, ThresholdIsMeanPlusSigma) {
  const std::vector<double> series = {0, 0, 0, 0, 10};
  const double mean = 2.0, sd = 4.0;
  EXPECT_NEAR(sc::burst_threshold(series), mean + sd, 1e-9);
}

TEST(Burst, DetectFlagsAboveThreshold) {
  const auto bursts = sc::detect_bursts({1.0, 5.0, 2.0}, 2.5);
  EXPECT_FALSE(bursts[0]);
  EXPECT_TRUE(bursts[1]);
  EXPECT_FALSE(bursts[2]);
}

TEST(Burst, PerfectPredictionPerfectScore) {
  const std::vector<bool> b = {false, true, false, true, false};
  const auto s = sc::score_bursts(b, b, 0);
  EXPECT_EQ(s.true_positives, 2u);
  EXPECT_EQ(s.false_positives, 0u);
  EXPECT_EQ(s.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
}

TEST(Burst, WindowToleranceMatchesNearbyPrediction) {
  const std::vector<bool> actual = {false, false, true, false, false};
  const std::vector<bool> predicted = {true, false, false, false, false};
  // Offset of 2 buckets: missed with half_window 1, hit with 2.
  const auto tight = sc::score_bursts(actual, predicted, 1);
  EXPECT_EQ(tight.true_positives, 0u);
  EXPECT_EQ(tight.false_negatives, 1u);
  EXPECT_EQ(tight.false_positives, 1u);
  const auto loose = sc::score_bursts(actual, predicted, 2);
  EXPECT_EQ(loose.true_positives, 1u);
  EXPECT_EQ(loose.false_positives, 0u);
}

TEST(Burst, SensitivityPrecisionMonotoneInWindow) {
  // Widening the window can only help — the property behind the rising
  // curves of Figs. 13 and 15.
  prionn::util::Rng rng(8);
  std::vector<bool> actual(500), predicted(500);
  for (std::size_t i = 0; i < 500; ++i) {
    actual[i] = rng.bernoulli(0.05);
    predicted[i] = rng.bernoulli(0.05);
  }
  double last_sens = -1.0, last_prec = -1.0;
  for (const std::size_t half : {0u, 2u, 5u, 10u, 30u}) {
    const auto s = sc::score_bursts(actual, predicted, half);
    EXPECT_GE(s.sensitivity(), last_sens);
    EXPECT_GE(s.precision(), last_prec);
    last_sens = s.sensitivity();
    last_prec = s.precision();
  }
}

TEST(Burst, NoActualBurstsGivesZeroSensitivityDenominator) {
  const std::vector<bool> none(10, false);
  const std::vector<bool> some = {true, false, false, false, false,
                                  false, false, false, false, false};
  const auto s = sc::score_bursts(none, some, 1);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 0.0);
  EXPECT_EQ(s.false_positives, 1u);
}

// ------------------------------------------------- IO-aware scheduler ---

namespace {

sc::IoSimJob io_job(std::uint64_t id, double submit, std::uint32_t nodes,
                    double runtime, double bw) {
  sc::IoSimJob j;
  j.base = job(id, submit, nodes, runtime);
  j.predicted_bandwidth = bw;
  j.actual_bandwidth = bw;
  return j;
}

}  // namespace

TEST(IoAware, ZeroCapBehavesLikePlainScheduler) {
  sc::IoAwareSimulator sim({4, 0.0, 3600.0});
  const auto result = sim.run({io_job(1, 0.0, 2, 100.0, 1e9),
                               io_job(2, 0.0, 2, 100.0, 1e9)});
  ASSERT_EQ(result.schedule.size(), 2u);
  for (const auto& s : result.schedule) EXPECT_DOUBLE_EQ(s.start_time, 0.0);
  EXPECT_EQ(result.oversubscribed_minutes, 0u);  // cap disabled
}

TEST(IoAware, CapSerialisesIoHeavyJobs) {
  // Two IO-heavy jobs that fit node-wise but together exceed the cap:
  // the IO-aware policy must run them one after the other.
  sc::IoAwareSimulator sim({8, 100.0, 3600.0});
  const auto result = sim.run({io_job(1, 0.0, 2, 120.0, 80.0),
                               io_job(2, 0.0, 2, 120.0, 80.0)});
  ASSERT_EQ(result.schedule.size(), 2u);
  const double s0 = result.schedule[0].start_time;
  const double s1 = result.schedule[1].start_time;
  EXPECT_NEAR(std::abs(s1 - s0), 120.0, 1.0);
  EXPECT_EQ(result.oversubscribed_minutes, 0u);
}

TEST(IoAware, LowIoJobsBackfillPastIoBlockedHead) {
  // Head blocked on IO; a later low-IO job can still run.
  sc::IoAwareSimulator sim({8, 100.0, 3600.0});
  const auto result = sim.run({
      io_job(1, 0.0, 2, 300.0, 90.0),  // running, nearly saturates the cap
      io_job(2, 1.0, 2, 100.0, 50.0),  // head: blocked on IO
      io_job(3, 2.0, 2, 100.0, 5.0),   // low IO: should backfill
  });
  std::map<std::uint64_t, sc::ScheduledJob> by;
  for (const auto& s : result.schedule) by[s.id] = s;
  EXPECT_GE(by.at(2).start_time, 300.0);  // waits for job 1's bandwidth
  EXPECT_NEAR(by.at(3).start_time, 2.0, 1.0);
}

TEST(IoAware, StarvationGuardReleasesHead) {
  // A single job whose predicted IO alone exceeds the cap must still run
  // once the hold bound expires.
  sc::IoAwareSimulator sim({4, 10.0, /*max_io_hold=*/60.0});
  const auto result = sim.run({io_job(1, 0.0, 1, 50.0, 1e6)});
  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_LE(result.schedule[0].start_time, 61.0);
}

TEST(IoAware, DrainOutlivesExpiredHoldOfNodeBoundHead) {
  // The head (id 2) is held on IO at t=1 with nodes free. At t=5 the IO
  // job ends and two backfills, each within the head's spare nodes, start
  // together and leave it 4 of its 5 nodes. Its hold expires at t=11 with
  // nothing to start; the run must still drain to the next completion,
  // not spin on the expired hold.
  sc::IoAwareSimulator sim({13, 1.0, /*max_io_hold=*/10.0});
  const auto result = sim.run({io_job(0, 0.0, 5, 1000.0, 0.0),
                               io_job(1, 0.0, 1, 5.0, 1.0),
                               io_job(2, 1.0, 5, 50.0, 1.5),
                               io_job(3, 1.0, 2, 1000.0, 0.5),
                               io_job(4, 1.0, 2, 1000.0, 0.5)});
  ASSERT_EQ(result.schedule.size(), 5u);
  for (const auto& s : result.schedule) {
    if (s.id == 3 || s.id == 4) {
      EXPECT_DOUBLE_EQ(s.start_time, 5.0);
    } else if (s.id == 2) {
      // Job 0's completion frees the nodes; the expired hold admits the
      // head despite its IO.
      EXPECT_DOUBLE_EQ(s.start_time, 1000.0);
    }
  }
}

TEST(IoAware, ReducesOversubscriptionVsObliviousPolicy) {
  // Property at workload scale: with accurate predictions, the IO-aware
  // policy produces no more over-cap minutes than the oblivious one.
  prionn::util::Rng rng(11);
  std::vector<sc::IoSimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    t += rng.exponential(0.01);
    jobs.push_back(io_job(i, t,
                          static_cast<std::uint32_t>(rng.uniform_int(1, 4)),
                          rng.uniform(60.0, 1200.0),
                          rng.bernoulli(0.25) ? rng.uniform(40.0, 90.0)
                                              : rng.uniform(0.1, 5.0)));
  }
  const double cap = 120.0;
  sc::IoAwareSimulator oblivious({16, 0.0, 3600.0});
  sc::IoAwareSimulator aware({16, cap, 3600.0});
  const auto r_oblivious = oblivious.run(jobs);
  const auto r_aware = aware.run(jobs);
  const auto over_oblivious =
      sc::count_over_cap_minutes(r_oblivious.actual_io_series, cap);
  const auto over_aware =
      sc::count_over_cap_minutes(r_aware.actual_io_series, cap);
  EXPECT_LE(over_aware, over_oblivious);
  // Both policies complete every job.
  EXPECT_EQ(r_aware.schedule.size(), jobs.size());
  EXPECT_EQ(r_oblivious.schedule.size(), jobs.size());
  // The IO-aware policy trades some wait time for the IO guarantee.
  EXPECT_GE(r_aware.mean_wait_seconds, r_oblivious.mean_wait_seconds - 1.0);
}

TEST(IoAware, RejectsBadOptions) {
  EXPECT_THROW(sc::IoAwareSimulator({0, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(sc::IoAwareSimulator({4, -1.0, 1.0}), std::invalid_argument);
}

TEST(IoAware, CountOverCapMinutes) {
  EXPECT_EQ(sc::count_over_cap_minutes({1.0, 5.0, 3.0}, 2.0), 2u);
  EXPECT_EQ(sc::count_over_cap_minutes({}, 2.0), 0u);
}

TEST(IoAware, RealisedIoCountsEveryJobWhateverItsId) {
  // Two concurrent 80 B/s jobs put 160 B/s on the filesystem, whether
  // their ids start at 0 or not.
  for (const std::uint64_t first : {0u, 1u, 1000u}) {
    const auto result = sc::IoAwareSimulator().run(
        {io_job(first, 0.0, 2, 120.0, 80.0),
         io_job(first + 1, 0.0, 2, 120.0, 80.0)});
    EXPECT_EQ(result.actual_io_series, (std::vector<double>{160.0, 160.0}))
        << "ids from " << first;
  }
}

#if PRIONN_OBS_ENABLED
TEST(IoAware, TelemetryCountsDispatchesAndHolds) {
  // The counters count the IO-aware scheduler's own dispatches and holds;
  // integer bandwidths bring the predicted-IO gauge back to exactly 0.
  auto& started =
      prionn::obs::registry().counter("prionn_sched_jobs_started_total");
  auto& holds = prionn::obs::registry().counter("prionn_sched_io_holds_total");
  auto& in_use =
      prionn::obs::registry().gauge("prionn_sched_predicted_io_in_use");
  const std::vector<sc::IoSimJob> jobs = {io_job(0, 0.0, 2, 120.0, 80.0),
                                          io_job(1, 0.0, 2, 120.0, 80.0),
                                          io_job(2, 1.0, 1, 60.0, 10.0)};
  for (const double cap : {0.0, 100.0}) {
    sc::IoAwareOptions options;
    options.total_nodes = 8;
    options.io_cap = cap;
    const std::uint64_t started_before = started.value();
    const std::uint64_t holds_before = holds.value();
    in_use.set(-1.0);
    sc::IoAwareSimulator(options).run(jobs);
    EXPECT_EQ(started.value() - started_before, jobs.size()) << "cap " << cap;
    if (cap > 0.0) {
      EXPECT_GT(holds.value(), holds_before);  // job 1 waits for job 0
      EXPECT_EQ(in_use.value(), 0.0);
    } else {
      EXPECT_EQ(holds.value(), holds_before);
    }
  }
}
#endif  // PRIONN_OBS_ENABLED

// -------------------------------------------- end-to-end trace replay ---

TEST(Cluster, ReplaysGeneratedTrace) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(400));
  const auto jobs = prionn::trace::completed_jobs(gen.generate());
  std::vector<sc::SimJob> sim_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    sim_jobs.push_back(job(i, jobs[i].submit_time, jobs[i].requested_nodes,
                           jobs[i].runtime_minutes * 60.0,
                           jobs[i].requested_minutes * 60.0));
  sc::ClusterSimulator sim({1296});
  const auto sched = sim.run(sim_jobs);
  EXPECT_EQ(sched.size(), jobs.size());
  for (const auto& s : sched) {
    EXPECT_GE(s.start_time, s.submit_time);
    EXPECT_GT(s.end_time, s.start_time);
  }
}

namespace {

/// FNV-1a over the bit patterns of every scheduled job's id, start and
/// end, in completion order.
std::string schedule_digest(const std::vector<sc::ScheduledJob>& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&](std::uint64_t bits) {
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h ^= bits & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& s : schedule) {
    add(s.id);
    add(std::bit_cast<std::uint64_t>(s.start_time));
    add(std::bit_cast<std::uint64_t>(s.end_time));
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

/// A Cab-like trace with dense ids for a `nodes`-node machine: node
/// requests clamped to the machine and, when `load` > 0, submit times
/// rescaled so the trace offers that load. Submit times are rounded to
/// whole seconds: the generator's own submit times differ in the last
/// bits between FMA and non-FMA builds, and its runtimes and requests are
/// whole minutes already and its bandwidths the same in both, so the
/// schedules hold in both builds. Bandwidth is predicted exactly, or at
/// most `max_bw`.
std::vector<sc::IoSimJob> generated_io_jobs(std::size_t n, std::uint64_t seed,
                                            std::uint32_t nodes, double load,
                                            double max_bw) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(n, seed));
  const auto records = prionn::trace::completed_jobs(gen.generate());
  double node_seconds = 0.0;
  for (const auto& r : records)
    node_seconds += std::clamp<std::uint32_t>(r.requested_nodes, 1, nodes) *
                    r.runtime_seconds();
  const double t0 = records.front().submit_time;
  const double scale =
      load > 0.0 ? node_seconds / (nodes * load) /
                       (records.back().submit_time - t0)
                 : 1.0;
  std::vector<sc::IoSimJob> jobs;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    sc::IoSimJob j;
    j.base = job(i, std::round((r.submit_time - t0) * scale),
                 std::clamp<std::uint32_t>(r.requested_nodes, 1, nodes),
                 r.runtime_seconds(), r.requested_minutes * 60.0);
    j.actual_bandwidth = r.read_bandwidth() + r.write_bandwidth();
    j.predicted_bandwidth = std::min(j.actual_bandwidth, max_bw);
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace

TEST(IoAware, CapSchedulesMatchGoldenDigests) {
  // Digests of capped IO-aware schedules, recorded from the scheduler
  // that kept its own FCFS + EASY loop. The 64-node machine at load 0.9
  // keeps long queues, so IO holds meet node-blocked heads; the default
  // machine is held back by IO alone. A finite hold lets jobs predicted
  // above the cap start through the starvation guard; with an unbounded
  // hold no job is predicted above the cap, so each fits an idle machine.
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  struct Case {
    std::uint64_t seed;
    std::uint32_t nodes;
    double load;
    double io_cap;
    double max_io_hold;
    const char* digest;
  };
  const Case cases[] = {
      {1, 64, 0.9, 5e7, 3600.0, "c2c24e6b83f59418"},
      {2, 64, 0.9, 5e7, kUnbounded, "e7bd6138166ae6e9"},
      {3, 1296, 0.0, 3e7, 4.0 * 3600.0, "c392b2d61109f79d"},
      {4, 1296, 0.0, 5e7, kUnbounded, "e68ddd90a50b3e83"},
  };
  for (const Case& c : cases) {
    const auto jobs = generated_io_jobs(
        1200, c.seed, c.nodes, c.load,
        c.max_io_hold == kUnbounded ? c.io_cap : kUnbounded);
    sc::IoAwareOptions options;
    options.total_nodes = c.nodes;
    options.io_cap = c.io_cap;
    options.max_io_hold = c.max_io_hold;
    const auto result = sc::IoAwareSimulator(options).run(jobs);
    ASSERT_EQ(result.schedule.size(), jobs.size()) << "seed " << c.seed;
    EXPECT_EQ(schedule_digest(result.schedule), c.digest)
        << "seed " << c.seed << ", " << c.nodes << " nodes";
  }
}

TEST(IoAware, ZeroCapMatchesClusterSimulatorOnGeneratedTraces) {
  // With io_cap = 0 the IO-aware scheduler is plain FCFS + EASY backfill,
  // so it must produce ClusterSimulator's schedule exactly. Odd seeds run
  // on a contended 64-node machine (node requests clamped, submit times
  // compressed to offered load 0.9), even seeds on the default machine.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::uint32_t nodes = seed % 2 ? 64 : 1296;
    prionn::trace::WorkloadGenerator gen(
        prionn::trace::WorkloadOptions::cab(1200, seed));
    const auto records = prionn::trace::completed_jobs(gen.generate());
    double node_seconds = 0.0;
    for (const auto& r : records)
      node_seconds += std::clamp<std::uint32_t>(r.requested_nodes, 1, nodes) *
                      r.runtime_seconds();
    const double t0 = records.front().submit_time;
    const double scale =
        nodes == 1296 ? 1.0
                      : node_seconds / (nodes * 0.9) /
                            (records.back().submit_time - t0);
    std::vector<sc::SimJob> jobs;
    std::vector<sc::IoSimJob> io_jobs;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      jobs.push_back(job(i, (r.submit_time - t0) * scale,
                         std::clamp<std::uint32_t>(r.requested_nodes, 1, nodes),
                         r.runtime_seconds(), r.requested_minutes * 60.0));
      sc::IoSimJob io;
      io.base = jobs.back();
      io.predicted_bandwidth = io.actual_bandwidth =
          r.read_bandwidth() + r.write_bandwidth();
      io_jobs.push_back(io);
    }

    sc::ClusterSimulator cluster({nodes});
    const auto want = by_id(cluster.run(jobs));
    sc::IoAwareOptions options;
    options.total_nodes = nodes;
    options.io_cap = 0.0;
    sc::IoAwareSimulator io_aware(options);
    const auto got = by_id(io_aware.run(io_jobs).schedule);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    std::size_t mismatched = 0;
    for (const auto& [id, w] : want) {
      const auto& g = got.at(id);
      if (g.start_time != w.start_time || g.end_time != w.end_time ||
          g.submit_time != w.submit_time)
        ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "seed " << seed << " of " << want.size();
  }
}
