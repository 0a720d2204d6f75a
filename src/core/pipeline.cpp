#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace prionn::core {

namespace {

/// Map JobRecords to SimJobs; the scheduler believes the user request.
std::vector<sched::SimJob> to_sim_jobs(
    const std::vector<trace::JobRecord>& jobs) {
  std::vector<sched::SimJob> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    sched::SimJob s;
    s.id = i;  // index-keyed so results can align with the inputs
    s.submit_time = j.submit_time;
    s.nodes = std::max<std::uint32_t>(1, j.requested_nodes);
    s.runtime = j.runtime_minutes * 60.0;
    s.believed_runtime = j.requested_minutes * 60.0;
    out.push_back(s);
  }
  return out;
}

}  // namespace

TurnaroundEval evaluate_turnaround(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<JobPrediction>& predictions,
    const Phase2Options& options) {
  if (jobs.size() != predictions.size())
    throw std::invalid_argument(
        "evaluate_turnaround: jobs/predictions size mismatch");
  PRIONN_OBS_SPAN("phase2.turnaround");
  PRIONN_OBS_TIME("prionn_turnaround_eval_latency_ns",
                  "turnaround replay over one job set");

  const auto sim_jobs = to_sim_jobs(jobs);
  const auto user_runtime = [&](std::uint64_t id) {
    return jobs[id].requested_minutes * 60.0;
  };
  const auto prionn_runtime = [&](std::uint64_t id) {
    return predictions[id].runtime_minutes * 60.0;
  };

  TurnaroundEval eval;
  eval.predicted_user.assign(jobs.size(), 0.0);
  eval.predicted_prionn.assign(jobs.size(), 0.0);
  eval.simulated.assign(jobs.size(), 0.0);

  sched::ClusterSimulator sim(options.cluster);
  for (const auto& job : sim_jobs) {
    sim.submit(job);
    // Snapshot the live state and replay it twice, once per runtime source
    // (paper section 4.2).
    eval.predicted_user[job.id] = sim.snapshot_turnaround(job.id, user_runtime);
    eval.predicted_prionn[job.id] =
        sim.snapshot_turnaround(job.id, prionn_runtime);
  }
  sim.drain();

  eval.schedule = sim.completed();
  for (const auto& done : eval.schedule) {
    // The simulator hands back ids it was given; an out-of-range id here
    // would scribble outside the result vectors.
    PRIONN_CHECK(done.id < eval.simulated.size())
        << "evaluate_turnaround: simulator returned unknown job id "
        << done.id << " (submitted " << jobs.size() << ")";
    eval.simulated[done.id] = done.turnaround();
  }
  return eval;
}

std::vector<sched::IoInterval> actual_io_intervals(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<sched::ScheduledJob>& schedule) {
  std::vector<sched::IoInterval> out;
  out.reserve(schedule.size());
  for (const auto& s : schedule) {
    const auto& j = jobs.at(s.id);
    const double duration = s.end_time - s.start_time;
    if (duration <= 0.0) continue;
    const double bandwidth = (j.bytes_read + j.bytes_written) / duration;
    PRIONN_DCHECK_FINITE(bandwidth)
        << "actual_io_intervals: job " << s.id << " over " << duration
        << "s";
    out.push_back({s.start_time, s.end_time, bandwidth});
  }
  return out;
}

std::vector<sched::IoInterval> predicted_io_intervals_perfect(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<sched::ScheduledJob>& schedule,
    const std::vector<JobPrediction>& predictions) {
  if (jobs.size() != predictions.size())
    throw std::invalid_argument(
        "predicted_io_intervals_perfect: size mismatch");
  std::vector<sched::IoInterval> out;
  out.reserve(schedule.size());
  for (const auto& s : schedule) {
    const auto& p = predictions.at(s.id);
    out.push_back({s.start_time, s.end_time,
                   p.read_bandwidth() + p.write_bandwidth()});
  }
  return out;
}

std::vector<sched::IoInterval> predicted_io_intervals_predicted(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<double>& predicted_turnaround_seconds,
    const std::vector<JobPrediction>& predictions) {
  if (jobs.size() != predictions.size() ||
      jobs.size() != predicted_turnaround_seconds.size())
    throw std::invalid_argument(
        "predicted_io_intervals_predicted: size mismatch");
  std::vector<sched::IoInterval> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double turnaround = predicted_turnaround_seconds[i];
    if (turnaround <= 0.0) continue;  // snapshot replay failed / unknown job
    const double end = jobs[i].submit_time + turnaround;
    const double start =
        std::max(jobs[i].submit_time,
                 end - predictions[i].runtime_minutes * 60.0);
    out.push_back({start, end,
                   predictions[i].read_bandwidth() +
                       predictions[i].write_bandwidth()});
  }
  return out;
}

SystemIoEval evaluate_system_io(
    const std::vector<sched::IoInterval>& actual,
    const std::vector<sched::IoInterval>& predicted,
    const Phase2Options& options) {
  PRIONN_OBS_SPAN("phase2.system_io");
  sched::IoTimeline actual_tl(options.bucket_seconds);
  sched::IoTimeline predicted_tl(options.bucket_seconds);
  actual_tl.add(actual);
  predicted_tl.add(predicted);
  const std::size_t buckets =
      std::max(actual_tl.buckets(), predicted_tl.buckets());
  actual_tl.resize(buckets);
  predicted_tl.resize(buckets);

  SystemIoEval eval;
  eval.actual_series = actual_tl.series();
  eval.predicted_series = predicted_tl.series();

  // Relative accuracy over buckets where the system was active in either
  // series (idle/idle buckets are trivially correct and would inflate the
  // score).
  for (std::size_t b = 0; b < buckets; ++b) {
    const double a = eval.actual_series[b], p = eval.predicted_series[b];
    if (a <= 0.0 && p <= 0.0) continue;
    eval.accuracies.push_back(util::relative_accuracy(a, p));
  }

  eval.burst_threshold = sched::burst_threshold(eval.actual_series);
  const auto actual_bursts =
      sched::detect_bursts(eval.actual_series, eval.burst_threshold);
  const auto predicted_bursts =
      sched::detect_bursts(eval.predicted_series, eval.burst_threshold);

  const double buckets_per_minute = 60.0 / options.bucket_seconds;
  for (const std::size_t w : options.window_minutes) {
    const auto half = static_cast<std::size_t>(
        static_cast<double>(w) * buckets_per_minute / 2.0);
    eval.windows.push_back(
        {w, sched::score_bursts(actual_bursts, predicted_bursts, half)});
  }
  return eval;
}

}  // namespace prionn::core
