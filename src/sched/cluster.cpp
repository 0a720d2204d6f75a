#include "sched/cluster.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace prionn::sched {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kMinRemaining = 1.0;  // seconds
}  // namespace

ClusterSimulator::ClusterSimulator(ClusterOptions options)
    : ClusterSimulator(options,
                       LiveState{0.0, options.total_nodes, 0.0, -1.0, {}, {}}) {
  if (options_.total_nodes == 0)
    throw std::invalid_argument("ClusterSimulator: need at least one node");
  if (options_.io_cap < 0.0)
    throw std::invalid_argument("ClusterSimulator: io_cap must be >= 0");
}

ClusterSimulator::ClusterSimulator(ClusterOptions options, LiveState live)
    : options_(options), live_(std::move(live)) {}

const ClusterSimulator::Running* ClusterSimulator::find_running(
    std::uint64_t id) const noexcept {
  // Newest first: a job that has just started is at the back.
  for (auto it = live_.running.rbegin(); it != live_.running.rend(); ++it)
    if (it->id == id) return &*it;
  return nullptr;
}

double ClusterSimulator::next_event_time() const noexcept {
  // Two event sources: job completions, and the expiry of the head job's
  // IO hold (which must fire even when nothing is running). An expired
  // hold is not an event: a head still short of nodes waits for the next
  // completion.
  double t = kInfinity;
  for (const auto& r : live_.running) t = std::min(t, r.actual_end);
  if (live_.head_held_since >= 0.0) {
    const double release = live_.head_held_since + options_.max_io_hold;
    if (release > live_.now) t = std::min(t, release);
  }
  return t;
}

void ClusterSimulator::add_io_in_use(double predicted_bw) {
  live_.io_in_use += predicted_bw;
  PRIONN_OBS_GAUGE_SET("prionn_sched_predicted_io_in_use",
                       "predicted bandwidth of the running set",
                       live_.io_in_use);
}

void ClusterSimulator::complete_due_jobs() {
  // Pop every running job whose actual end is due. Iterate because several
  // jobs can end at the same instant.
  for (std::size_t i = 0; i < live_.running.size();) {
    if (live_.running[i].actual_end <= live_.now + 1e-9) {
      const Running& r = live_.running[i];
      completed_.push_back(
          ScheduledJob{r.id, r.submit, r.start, r.actual_end});
      live_.free_nodes += r.nodes;
      if (options_.io_cap > 0.0) add_io_in_use(-r.predicted_bw);
      live_.running[i] = live_.running.back();
      live_.running.pop_back();
    } else {
      ++i;
    }
  }
}

void ClusterSimulator::start_job(std::size_t queue_pos) {
  const auto& [job, predicted_bw] = live_.queue[queue_pos];
  live_.free_nodes -= job.nodes;
  if (options_.io_cap > 0.0) add_io_in_use(predicted_bw);
  live_.running.push_back(
      Running{job.id, job.nodes, live_.now, job.submit_time,
              live_.now + std::max(job.runtime, kMinRemaining),
              live_.now + std::max(job.believed_runtime, kMinRemaining),
              predicted_bw});
  live_.queue.erase(live_.queue.begin() +
                    static_cast<std::ptrdiff_t>(queue_pos));
  if (queue_pos == 0) live_.head_held_since = -1.0;
}

void ClusterSimulator::try_start_jobs() {
  // FCFS: start queue-head jobs while they fit.
  while (!live_.queue.empty()) {
    const Queued& head = live_.queue.front();
    if (head.job.nodes > options_.total_nodes)
      throw std::invalid_argument(
          "ClusterSimulator: job larger than the machine");
    if (head.job.nodes > live_.free_nodes) break;
    if (!io_fits(head.predicted_bw)) {
      // IO admission holds the head back for at most max_io_hold, then
      // admits it despite the IO budget (the starvation guard).
      if (live_.head_held_since < 0.0) {
        live_.head_held_since = live_.now;
        PRIONN_OBS_INC("prionn_sched_io_holds_total",
                       "queue heads held back by the IO-admission gate");
      }
      if (live_.now - live_.head_held_since < options_.max_io_hold) break;
    }
    start_job(0);
  }
  if (live_.queue.empty()) return;

  // EASY backfill, with the IO gate on candidates. Compute the shadow
  // time: the earliest instant the blocked head job could start, believing
  // the scheduler's runtime estimates, and the nodes left over at that
  // instant. Only nodes are reserved: an IO hold is bounded by max_io_hold
  // instead.
  std::vector<std::pair<double, std::uint32_t>> releases;  // (believed_end, nodes)
  releases.reserve(live_.running.size());
  for (const auto& r : live_.running)
    releases.emplace_back(std::max(r.believed_end, live_.now), r.nodes);
  std::sort(releases.begin(), releases.end());

  const std::uint32_t head_nodes = live_.queue.front().job.nodes;
  std::uint32_t available = live_.free_nodes;
  double shadow_time = live_.now;
  for (const auto& [end, nodes] : releases) {
    if (available >= head_nodes) break;
    available += nodes;
    shadow_time = end;
  }
  // Nodes that can be used by backfilled jobs without delaying the head's
  // reservation: the surplus at shadow time.
  const std::uint32_t extra_nodes =
      available >= head_nodes ? available - head_nodes : 0;

  for (std::size_t i = 1; i < live_.queue.size();) {
    const auto& [candidate, predicted_bw] = live_.queue[i];
    if (candidate.nodes <= live_.free_nodes && io_fits(predicted_bw)) {
      const double believed_end =
          live_.now + std::max(candidate.believed_runtime, kMinRemaining);
      const bool fits_before_shadow = believed_end <= shadow_time + 1e-9;
      const bool fits_in_extra = candidate.nodes <= extra_nodes;
      if (fits_before_shadow || fits_in_extra) {
        start_job(i);
        continue;  // same index now holds the next candidate
      }
    }
    ++i;
  }
}

void ClusterSimulator::advance_to(double time) {
  if (time < live_.now) return;
  for (;;) {
    const double next = next_event_time();
    if (next > time) break;
    live_.now = next;
    complete_due_jobs();
    try_start_jobs();
  }
  live_.now = time;
}

void ClusterSimulator::submit(const SimJob& job, double predicted_bandwidth) {
  if (job.submit_time < live_.now)
    throw std::invalid_argument(
        "ClusterSimulator::submit: out-of-order submission");
  advance_to(job.submit_time);
  live_.queue.push_back({job, predicted_bandwidth});
  try_start_jobs();
}

void ClusterSimulator::drain() {
  while (!idle()) {
    const double next = next_event_time();
    if (next == kInfinity) {
      // Queue non-empty, nothing running and no IO hold left to expire:
      // IO admission holds the head for good (an unbounded hold, or a
      // finite one whose expiry rounding left unmet). A job larger than
      // the machine cannot get here: try_start_jobs throws on it.
      throw std::logic_error("ClusterSimulator::drain: deadlocked queue");
    }
    advance_to(next);
  }
}

std::vector<ScheduledJob> ClusterSimulator::run(
    const std::vector<SimJob>& jobs) {
  for (const auto& job : jobs) submit(job);
  drain();
  return completed_;
}

double ClusterSimulator::snapshot_turnaround(
    std::uint64_t job_id,
    const std::function<double(std::uint64_t)>& predicted) const {
  // End of a running job whose remaining time comes from a prediction.
  const auto predicted_end = [&](const Running& r) {
    const double elapsed = live_.now - r.start;
    return live_.now + std::max(kMinRemaining, predicted(r.id) - elapsed);
  };
  // Negative means unknown, so a negative end reads as unknown too.
  const auto turnaround = [](double end, double submit) {
    return end >= 0.0 ? end - submit : -1.0;
  };
  // A replay ends each job at the end fixed when it started, so a target
  // that is already running is answered without one.
  if (const Running* target = find_running(job_id))
    return turnaround(predicted_end(*target), target->submit);
  if (std::none_of(live_.queue.rbegin(), live_.queue.rend(),
                   [&](const Queued& q) { return q.job.id == job_id; }))
    return -1.0;

  ClusterSimulator clone(options_, live_);
  for (auto& r : clone.live_.running) {
    r.actual_end = predicted_end(r);
    r.believed_end = r.actual_end;
  }
  for (auto& q : clone.live_.queue) {
    const double p = std::max(kMinRemaining, predicted(q.job.id));
    q.job.runtime = p;
    q.job.believed_runtime = p;
  }

  // Replay event by event until the target starts.
  std::uint64_t steps = 0;
  const Running* target = nullptr;
  while (target == nullptr) {
    const double next = clone.next_event_time();
    if (next == kInfinity) break;
    clone.advance_to(next);
    ++steps;
    target = clone.find_running(job_id);
  }
  PRIONN_OBS_ADD("prionn_sched_snapshot_replay_steps_total",
                 "advance_to steps taken by snapshot turnaround replays",
                 steps);
  return target ? turnaround(target->actual_end, target->submit) : -1.0;
}

}  // namespace prionn::sched
