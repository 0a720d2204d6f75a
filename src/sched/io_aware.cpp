#include "sched/io_aware.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sched/io_timeline.hpp"

namespace prionn::sched {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kMinRemaining = 1.0;
}  // namespace

IoAwareSimulator::IoAwareSimulator(IoAwareOptions options)
    : options_(options), free_nodes_(options.total_nodes) {
  if (options_.total_nodes == 0)
    throw std::invalid_argument("IoAwareSimulator: need at least one node");
  if (options_.io_cap < 0.0)
    throw std::invalid_argument("IoAwareSimulator: io_cap must be >= 0");
}

bool IoAwareSimulator::io_fits(double candidate_bw) const noexcept {
  if (options_.io_cap <= 0.0) return true;
  return predicted_io_in_use_ + candidate_bw <= options_.io_cap;
}

double IoAwareSimulator::next_completion() const noexcept {
  double t = kInfinity;
  for (const auto& r : running_) t = std::min(t, r.actual_end);
  return t;
}

void IoAwareSimulator::start_job(std::size_t queue_pos) {
  const IoSimJob& job = queue_[queue_pos];
  free_nodes_ -= job.base.nodes;
  predicted_io_in_use_ += job.predicted_bandwidth;
  PRIONN_OBS_INC("prionn_sched_jobs_started_total",
                 "jobs dispatched by the IO-aware scheduler");
  PRIONN_OBS_GAUGE_SET("prionn_sched_predicted_io_in_use",
                       "predicted bandwidth of the running set",
                       predicted_io_in_use_);
  Running r;
  r.id = job.base.id;
  r.nodes = job.base.nodes;
  r.predicted_bw = job.predicted_bandwidth;
  r.actual_bw = job.actual_bandwidth;
  r.start = now_;
  r.submit = job.base.submit_time;
  r.actual_end = now_ + std::max(job.base.runtime, kMinRemaining);
  r.believed_end = now_ + std::max(job.base.believed_runtime, kMinRemaining);
  running_.push_back(r);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(queue_pos));
  if (queue_pos == 0) head_waiting_since_ = -1.0;
}

void IoAwareSimulator::try_start_jobs() {
  // FCFS with an IO-admission gate on the head; a head blocked purely on
  // IO (nodes available) starts anyway after max_io_hold to bound
  // starvation.
  for (;;) {
    if (queue_.empty()) return;
    const IoSimJob& head = queue_.front();
    if (head.base.nodes > options_.total_nodes)
      throw std::invalid_argument(
          "IoAwareSimulator: job larger than the machine");
    if (head.base.nodes > free_nodes_) break;
    if (!io_fits(head.predicted_bandwidth)) {
      if (head_waiting_since_ < 0.0) {
        head_waiting_since_ = now_;
        PRIONN_OBS_INC("prionn_sched_io_holds_total",
                       "queue heads held back by the IO-admission gate");
      }
      if (now_ - head_waiting_since_ < options_.max_io_hold) break;
      // Starvation guard: admit despite the IO budget.
    }
    start_job(0);
  }
  if (queue_.empty() || !options_.easy_backfill) return;

  // EASY backfill with the same IO gate on candidates. Shadow time /
  // extra nodes follow the node dimension only: IO head-blocking is
  // bounded by max_io_hold rather than reserved against.
  std::vector<std::pair<double, std::uint32_t>> releases;
  releases.reserve(running_.size());
  for (const auto& r : running_)
    releases.emplace_back(std::max(r.believed_end, now_), r.nodes);
  std::sort(releases.begin(), releases.end());

  const std::uint32_t head_nodes = queue_.front().base.nodes;
  std::uint32_t available = free_nodes_;
  double shadow_time = now_;
  for (const auto& [end, nodes] : releases) {
    if (available >= head_nodes) break;
    available += nodes;
    shadow_time = end;
  }
  const std::uint32_t extra_nodes =
      available >= head_nodes ? available - head_nodes : 0;

  for (std::size_t i = 1; i < queue_.size();) {
    const IoSimJob& candidate = queue_[i];
    if (candidate.base.nodes <= free_nodes_ &&
        io_fits(candidate.predicted_bandwidth)) {
      const double believed_end =
          now_ + std::max(candidate.base.believed_runtime, kMinRemaining);
      const bool fits_before_shadow = believed_end <= shadow_time + 1e-9;
      const bool fits_in_extra = candidate.base.nodes <= extra_nodes;
      if (fits_before_shadow || fits_in_extra) {
        start_job(i);
        continue;
      }
    }
    ++i;
  }
}

void IoAwareSimulator::advance_to(double time) {
  if (time < now_) return;
  for (;;) {
    // Two event sources: job completions, and the expiry of the head
    // job's IO hold (which must fire even when nothing is running).
    double next = next_completion();
    if (head_waiting_since_ >= 0.0) {
      const double release = head_waiting_since_ + options_.max_io_hold;
      if (release > now_) next = std::min(next, release);
    }
    if (next > time) break;
    now_ = next;
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].actual_end <= now_ + 1e-9) {
        const Running& r = running_[i];
        completed_.push_back(
            ScheduledJob{r.id, r.submit, r.start, r.actual_end});
        free_nodes_ += r.nodes;
        predicted_io_in_use_ -= r.predicted_bw;
        PRIONN_OBS_GAUGE_SET("prionn_sched_predicted_io_in_use",
                             "predicted bandwidth of the running set",
                             predicted_io_in_use_);
        running_[i] = running_.back();
        running_.pop_back();
      } else {
        ++i;
      }
    }
    try_start_jobs();
  }
  now_ = time;
}

IoAwareResult IoAwareSimulator::run(const std::vector<IoSimJob>& jobs) {
  PRIONN_OBS_SPAN("sched.run");
  for (const auto& job : jobs) {
    if (job.base.submit_time < now_)
      throw std::invalid_argument("IoAwareSimulator: out-of-order submit");
    advance_to(job.base.submit_time);
    queue_.push_back(job);
    try_start_jobs();
  }
  while (!running_.empty() || !queue_.empty()) {
    // Same event sources as advance_to. An expired hold is not an event:
    // a head still short of nodes waits for the next completion.
    double next = next_completion();
    if (head_waiting_since_ >= 0.0) {
      const double release = head_waiting_since_ + options_.max_io_hold;
      if (release > now_) next = std::min(next, release);
    }
    if (next == kInfinity)
      throw std::logic_error("IoAwareSimulator: deadlocked queue");
    advance_to(next);
  }

  IoAwareResult result;
  result.schedule = completed_;

  // Outcome metrics over the realised schedule.
  IoTimeline timeline(60.0);
  double wait_sum = 0.0, slowdown_sum = 0.0;
  for (const auto& s : completed_) {
    wait_sum += s.wait();
    const double runtime = s.end_time - s.start_time;
    slowdown_sum += (s.wait() + runtime) / std::max(runtime, 60.0);
  }
  // Map ids back to actual bandwidths for the realised IO series.
  std::vector<double> actual_bw(jobs.size(), 0.0);
  for (const auto& j : jobs)
    if (j.base.id < actual_bw.size()) actual_bw[j.base.id] = j.actual_bandwidth;
  for (const auto& s : completed_) {
    const double bw = s.id < actual_bw.size() ? actual_bw[s.id] : 0.0;
    timeline.add({s.start_time, s.end_time, bw});
  }
  result.actual_io_series = timeline.series();
  const auto n = static_cast<double>(std::max<std::size_t>(1, completed_.size()));
  result.mean_wait_seconds = wait_sum / n;
  result.mean_slowdown = slowdown_sum / n;
  result.oversubscribed_minutes =
      options_.io_cap > 0.0
          ? count_over_cap_minutes(result.actual_io_series, options_.io_cap)
          : 0;
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
