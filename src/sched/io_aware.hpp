// IO-aware scheduling — the application PRIONN's predictions enable
// (sections 1 and 4; mechanism after Herbein et al., HPDC'16). The front
// end runs a trace through ClusterSimulator with IO admission on: a job
// only starts when both its nodes AND its *predicted* IO bandwidth fit.
// Decisions use predictions; outcomes (the realised aggregate IO) use the
// actual bandwidths, so the benefit of accurate predictions is
// measurable: fewer minutes of filesystem over-subscription at a bounded
// cost in wait time.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/cluster.hpp"
#include "sched/sim_job.hpp"

namespace prionn::sched {

struct IoSimJob {
  SimJob base;
  double predicted_bandwidth = 0.0;  // bytes/s, drives admission
  double actual_bandwidth = 0.0;     // bytes/s, drives the outcome metrics
};

/// Node count, IO cap (0 disables IO-awareness, reducing the policy to
/// FCFS + EASY backfill) and the longest IO hold of the queue head.
using IoAwareOptions = ClusterOptions;

struct IoAwareResult {
  std::vector<ScheduledJob> schedule;  // completion order
  /// Realised aggregate IO per minute bucket (actual bandwidths).
  std::vector<double> actual_io_series;
  double mean_wait_seconds = 0.0;
  /// Bounded slowdown: (wait + runtime) / max(runtime, 60 s), averaged.
  double mean_slowdown = 0.0;
  /// Minutes whose realised aggregate IO exceeded the cap.
  std::size_t oversubscribed_minutes = 0;
};

class IoAwareSimulator {
 public:
  explicit IoAwareSimulator(IoAwareOptions options = {}) : fresh_(options) {}

  /// Simulate a full trace (sorted by submit time; ids unique) on a fresh
  /// cluster. Adds the number of jobs to
  /// `prionn_sched_jobs_started_total`.
  IoAwareResult run(const std::vector<IoSimJob>& jobs) const;

 private:
  ClusterSimulator fresh_;  // validated options, nothing submitted
};

/// Number of minutes in `series` whose aggregate IO exceeds `cap`.
std::size_t count_over_cap_minutes(const std::vector<double>& series,
                                   double cap) noexcept;

}  // namespace prionn::sched
