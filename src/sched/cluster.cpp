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
    : ClusterSimulator(options, LiveState{0.0, options.total_nodes, {}, {}}) {
  if (options_.total_nodes == 0)
    throw std::invalid_argument("ClusterSimulator: need at least one node");
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

double ClusterSimulator::next_completion_time() const noexcept {
  double t = kInfinity;
  for (const auto& r : live_.running) t = std::min(t, r.actual_end);
  return t;
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
      live_.running[i] = live_.running.back();
      live_.running.pop_back();
    } else {
      ++i;
    }
  }
}

void ClusterSimulator::start_job(const SimJob& job, std::size_t queue_pos) {
  live_.free_nodes -= job.nodes;
  Running r;
  r.id = job.id;
  r.nodes = job.nodes;
  r.start = live_.now;
  r.submit = job.submit_time;
  r.actual_end = live_.now + std::max(job.runtime, kMinRemaining);
  r.believed_end = live_.now + std::max(job.believed_runtime, kMinRemaining);
  live_.running.push_back(r);
  live_.queue.erase(live_.queue.begin() +
                    static_cast<std::ptrdiff_t>(queue_pos));
}

void ClusterSimulator::try_start_jobs() {
  // FCFS: start queue-head jobs while they fit.
  while (!live_.queue.empty() &&
         live_.queue.front().nodes <= live_.free_nodes) {
    if (live_.queue.front().nodes > options_.total_nodes)
      throw std::invalid_argument(
          "ClusterSimulator: job larger than the machine");
    start_job(live_.queue.front(), 0);
  }
  if (live_.queue.empty() || !options_.easy_backfill) return;
  if (live_.queue.front().nodes > options_.total_nodes)
    throw std::invalid_argument(
        "ClusterSimulator: job larger than the machine");

  // EASY backfill. Compute the shadow time: the earliest instant the
  // blocked head job could start, believing the scheduler's runtime
  // estimates, and the nodes left over at that instant.
  std::vector<std::pair<double, std::uint32_t>> releases;  // (believed_end, nodes)
  releases.reserve(live_.running.size());
  for (const auto& r : live_.running)
    releases.emplace_back(std::max(r.believed_end, live_.now), r.nodes);
  std::sort(releases.begin(), releases.end());

  const std::uint32_t head_nodes = live_.queue.front().nodes;
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
    const SimJob& candidate = live_.queue[i];
    if (candidate.nodes <= live_.free_nodes) {
      const double believed_end =
          live_.now + std::max(candidate.believed_runtime, kMinRemaining);
      const bool fits_before_shadow = believed_end <= shadow_time + 1e-9;
      const bool fits_in_extra = candidate.nodes <= extra_nodes;
      if (fits_before_shadow || fits_in_extra) {
        start_job(candidate, i);
        continue;  // same index now holds the next candidate
      }
    }
    ++i;
  }
}

void ClusterSimulator::advance_to(double time) {
  if (time < live_.now) return;
  for (;;) {
    const double next = next_completion_time();
    if (next > time) break;
    live_.now = next;
    complete_due_jobs();
    try_start_jobs();
  }
  live_.now = time;
}

void ClusterSimulator::submit(const SimJob& job) {
  if (job.submit_time < live_.now)
    throw std::invalid_argument(
        "ClusterSimulator::submit: out-of-order submission");
  advance_to(job.submit_time);
  live_.queue.push_back(job);
  try_start_jobs();
}

void ClusterSimulator::drain() {
  while (!idle()) {
    const double next = next_completion_time();
    if (next == kInfinity) {
      // Queue non-empty but nothing running: should be impossible unless a
      // job is larger than the machine, which submit()/try_start throw on.
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
                   [&](const SimJob& q) { return q.id == job_id; }))
    return -1.0;

  ClusterSimulator clone(options_, live_);
  for (auto& r : clone.live_.running) {
    r.actual_end = predicted_end(r);
    r.believed_end = r.actual_end;
  }
  for (auto& q : clone.live_.queue) {
    const double p = std::max(kMinRemaining, predicted(q.id));
    q.runtime = p;
    q.believed_runtime = p;
  }

  // Replay event by event until the target starts.
  std::uint64_t steps = 0;
  const Running* target = nullptr;
  while (target == nullptr) {
    const double next = clone.next_completion_time();
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
