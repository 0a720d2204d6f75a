#include "sched/io_aware.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.hpp"
#include "sched/io_timeline.hpp"

namespace prionn::sched {

IoAwareResult IoAwareSimulator::run(const std::vector<IoSimJob>& jobs) const {
  PRIONN_OBS_SPAN("sched.run");
  ClusterSimulator sim = fresh_;
  std::unordered_map<std::uint64_t, double> actual_bw;
  actual_bw.reserve(jobs.size());
  for (const auto& job : jobs) {
    sim.submit(job.base, job.predicted_bandwidth);
    actual_bw.emplace(job.base.id, job.actual_bandwidth);
  }
  sim.drain();
  PRIONN_OBS_ADD("prionn_sched_jobs_started_total",
                 "jobs dispatched by the IO-aware scheduler", jobs.size());

  // Outcome metrics over the realised schedule.
  IoAwareResult result;
  result.schedule = sim.completed();
  IoTimeline timeline(60.0);
  double wait_sum = 0.0, slowdown_sum = 0.0;
  for (const auto& s : result.schedule) {
    wait_sum += s.wait();
    const double runtime = s.end_time - s.start_time;
    slowdown_sum += (s.wait() + runtime) / std::max(runtime, 60.0);
    timeline.add({s.start_time, s.end_time, actual_bw.at(s.id)});
  }
  result.actual_io_series = timeline.series();
  const auto n =
      static_cast<double>(std::max<std::size_t>(1, result.schedule.size()));
  result.mean_wait_seconds = wait_sum / n;
  result.mean_slowdown = slowdown_sum / n;
  const double cap = fresh_.options().io_cap;
  result.oversubscribed_minutes =
      cap > 0.0 ? count_over_cap_minutes(result.actual_io_series, cap) : 0;
  return result;
}

std::size_t count_over_cap_minutes(const std::vector<double>& series,
                                   double cap) noexcept {
  std::size_t count = 0;
  for (const double v : series)
    if (v > cap) ++count;
  return count;
}

}  // namespace prionn::sched
