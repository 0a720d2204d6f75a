// Phase 2 of the paper (section 4): feed per-job runtime and IO
// predictions into the cluster simulator to predict turnaround times,
// future system IO, and IO bursts for an IO-aware scheduler.
#pragma once

#include <cstddef>
#include <vector>

#include "core/predictor.hpp"
#include "sched/burst.hpp"
#include "sched/cluster.hpp"
#include "sched/io_timeline.hpp"
#include "trace/job_record.hpp"

namespace prionn::core {

struct Phase2Options {
  sched::ClusterOptions cluster;
  double bucket_seconds = 60.0;   // the paper works in minutes
  std::vector<std::size_t> window_minutes = {5, 10, 15, 20, 30, 45, 60};
};

/// Turnaround evaluation (section 4.2): simulate the system; on every
/// submission snapshot the state twice and replay with (a) user-requested
/// runtimes and (b) PRIONN-predicted runtimes. All values in seconds,
/// parallel to the input job vector.
struct TurnaroundEval {
  std::vector<double> simulated;       // ground truth from the simulation
  std::vector<double> predicted_user;
  std::vector<double> predicted_prionn;
  std::vector<sched::ScheduledJob> schedule;  // in completion order
};

TurnaroundEval evaluate_turnaround(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<JobPrediction>& predictions,
    const Phase2Options& options = {});

/// System-IO evaluation (section 4.3): compare an actual aggregate IO
/// timeline against a predicted one and score IO bursts over the
/// tolerance windows.
struct SystemIoEval {
  std::vector<double> actual_series;
  std::vector<double> predicted_series;
  std::vector<double> accuracies;  // relative accuracy per active bucket
  double burst_threshold = 0.0;    // from the actual distribution
  struct WindowScore {
    std::size_t window_minutes = 0;
    sched::BurstScore score;
  };
  std::vector<WindowScore> windows;
};

/// Per-job IO intervals from a schedule with *actual* start/end and
/// *actual* bandwidths (ground truth timeline).
std::vector<sched::IoInterval> actual_io_intervals(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<sched::ScheduledJob>& schedule);

/// Evaluation 1 (Figs. 12 and 13): perfect turnaround knowledge — actual
/// start/end, predicted bandwidths.
std::vector<sched::IoInterval> predicted_io_intervals_perfect(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<sched::ScheduledJob>& schedule,
    const std::vector<JobPrediction>& predictions);

/// Evaluation 2 (Figs. 14 and 15): predicted turnaround — the predicted
/// completion is submit + predicted turnaround, the predicted start is
/// completion minus the predicted runtime, with predicted bandwidths.
std::vector<sched::IoInterval> predicted_io_intervals_predicted(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<double>& predicted_turnaround_seconds,
    const std::vector<JobPrediction>& predictions);

SystemIoEval evaluate_system_io(
    const std::vector<sched::IoInterval>& actual,
    const std::vector<sched::IoInterval>& predicted,
    const Phase2Options& options = {});

}  // namespace prionn::core
