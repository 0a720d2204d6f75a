// Event-driven HPC cluster simulator — the stand-in for the Flux resource
// manager simulator of the paper's section 4. FCFS with EASY backfill:
// scheduling decisions (reservations, backfill feasibility) use each job's
// *believed* runtime, while completions use the actual runtime, so the
// effect of runtime-prediction quality on the schedule is faithfully
// modelled.
//
// Optional IO admission (sections 1 and 4; after Herbein et al., HPDC'16)
// tracks a parallel-filesystem bandwidth budget alongside the node budget:
// a job only starts when both its nodes and its *predicted* IO bandwidth
// fit. IoAwareSimulator (sched/io_aware.hpp) runs a trace this way. The
// IO-hold counter and the predicted-IO gauge are written only while IO
// admission is on, so the default path pays for neither.
//
// The simulator is copyable by design: the paper's turnaround-time
// predictor snapshots the live system state on every submission, replaces
// the runtimes of queued/running jobs with predictions, and replays the
// copy forward (section 4.2). snapshot_turnaround() implements that, and
// replays only as far as the answer needs (see its comment).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sched/sim_job.hpp"

namespace prionn::sched {

struct ClusterOptions {
  std::uint32_t total_nodes = 1296;  // Cab's node count
  /// Aggregate filesystem budget for IO admission, bytes/s (0 turns IO
  /// admission off, leaving plain FCFS + EASY backfill).
  double io_cap = 0.0;
  /// Upper bound on how long IO admission may hold back the queue head
  /// before it is started anyway (avoids starvation when one job's
  /// predicted IO alone exceeds the cap). Seconds.
  double max_io_hold = 4.0 * 3600.0;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterOptions options = {});

  /// --- Incremental interface ---------------------------------------
  double now() const noexcept { return live_.now; }
  std::uint32_t free_nodes() const noexcept { return live_.free_nodes; }
  std::size_t running_count() const noexcept { return live_.running.size(); }
  std::size_t queued_count() const noexcept { return live_.queue.size(); }
  bool idle() const noexcept {
    return live_.running.empty() && live_.queue.empty();
  }

  /// Advance simulated time, processing completions and starts.
  void advance_to(double time);

  /// Submit a job; jobs must arrive in non-decreasing submit order. The
  /// simulator advances to the submit time first. The predicted bandwidth
  /// (bytes/s) matters only under IO admission.
  void submit(const SimJob& job, double predicted_bandwidth = 0.0);

  /// Run until every submitted job has completed.
  void drain();

  const ClusterOptions& options() const noexcept { return options_; }

  /// Completed jobs so far (in completion order).
  const std::vector<ScheduledJob>& completed() const noexcept {
    return completed_;
  }

  /// --- Batch interface ----------------------------------------------
  /// Simulate a whole trace (must be sorted by submit time); returns the
  /// schedule in completion order.
  std::vector<ScheduledJob> run(const std::vector<SimJob>& jobs);

  /// --- Snapshot turnaround prediction (paper section 4.2) -----------
  /// Predict `job_id`'s turnaround by replaying a clone of the current
  /// state in which every queued and running job has its runtime
  /// overridden by `predicted(id)` (remaining time for running jobs is
  /// prediction minus elapsed, floored at one second) and nothing else is
  /// submitted. Returns the job's completion in that replay minus its
  /// submit time, or a negative value if `job_id` is not a live (queued or
  /// running) job. Ids must be unique among live jobs.
  ///
  /// The replay stops when the target starts, which is exact: a job's end
  /// is fixed when it starts (start plus its overridden runtime) and
  /// nothing later in the replay moves it. So
  ///   - a running target is answered as now + max(1, predicted - elapsed)
  ///     - submit, with no clone;
  ///   - for a queued target only the live state (not the completed
  ///     history) is cloned, and advanced one event at a time until the
  ///     target starts. The number of events is added to the
  ///     `prionn_sched_snapshot_replay_steps_total` counter.
  double snapshot_turnaround(
      std::uint64_t job_id,
      const std::function<double(std::uint64_t)>& predicted) const;

 private:
  struct Running {
    std::uint64_t id = 0;
    std::uint32_t nodes = 1;
    double start = 0.0;
    double submit = 0.0;
    double actual_end = 0.0;    // drives the completion event
    double believed_end = 0.0;  // drives reservations/backfill
    double predicted_bw = 0.0;  // drives IO admission
  };

  struct Queued {
    SimJob job;
    double predicted_bw = 0.0;
  };

  /// Everything that decides the future schedule; a snapshot copies this
  /// and not the completed history.
  struct LiveState {
    double now = 0.0;
    std::uint32_t free_nodes = 0;
    double io_in_use = 0.0;         // predicted bandwidth of the running set
    double head_held_since = -1.0;  // when IO admission began holding the head
    std::vector<Running> running;
    std::deque<Queued> queue;
  };

  ClusterSimulator(ClusterOptions options, LiveState live);

  bool io_fits(double predicted_bw) const noexcept {
    return options_.io_cap <= 0.0 ||
           live_.io_in_use + predicted_bw <= options_.io_cap;
  }
  void add_io_in_use(double predicted_bw);
  void try_start_jobs();
  void start_job(std::size_t queue_pos);
  double next_event_time() const noexcept;
  void complete_due_jobs();
  const Running* find_running(std::uint64_t id) const noexcept;

  ClusterOptions options_;
  LiveState live_;
  std::vector<ScheduledJob> completed_;
};

}  // namespace prionn::sched
