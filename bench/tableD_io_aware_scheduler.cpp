// Extension (paper sections 1 and 4, after Herbein et al. HPDC'16): close
// the loop and actually SCHEDULE with PRIONN's IO predictions. Three
// policies over the same workload:
//   oblivious      - FCFS + EASY backfill, no IO awareness
//   oracle-aware   - IO admission using the true per-job bandwidths
//   prionn-aware   - IO admission using PRIONN's predicted bandwidths
// Reported: minutes of filesystem over-subscription (the contention the
// paper wants to avoid) against the cost in mean wait time.
#include <cstdio>

#include "bench/common.hpp"
#include "sched/io_aware.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace prionn;

namespace {

std::vector<sched::IoSimJob> to_io_jobs(
    const std::vector<trace::JobRecord>& jobs,
    const std::vector<core::JobPrediction>& predictions,
    bool use_oracle_bandwidth) {
  std::vector<sched::IoSimJob> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sched::IoSimJob j;
    j.base.id = i;
    j.base.submit_time = jobs[i].submit_time;
    j.base.nodes = std::max<std::uint32_t>(1, jobs[i].requested_nodes);
    j.base.runtime = jobs[i].runtime_minutes * 60.0;
    j.base.believed_runtime = predictions[i].runtime_minutes * 60.0;
    j.actual_bandwidth =
        jobs[i].read_bandwidth() + jobs[i].write_bandwidth();
    j.predicted_bandwidth =
        use_oracle_bandwidth
            ? j.actual_bandwidth
            : predictions[i].read_bandwidth() +
                  predictions[i].write_bandwidth();
    out.push_back(j);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t n_jobs = args.jobs ? args.jobs : 2200;
  const std::size_t epochs = args.epochs ? args.epochs : 10;

  bench::print_banner(
      "Table D (extension)",
      "IO-aware scheduling driven by PRIONN's predictions",
      "motivation (section 1): IO-aware placement avoids filesystem "
      "contention; accuracy determines how close to the oracle it gets",
      std::to_string(n_jobs) + " jobs, shared phase-1 cache, 1296 nodes");

  const auto run = bench::shared_run(n_jobs, epochs, args.seed);
  const auto dense = run.dense_predictions();

  // Cap at the burst threshold of the oblivious schedule's realised IO:
  // exactly the contention level the paper flags as a burst.
  sched::IoAwareSimulator oblivious_sim({1296, 0.0, 4.0 * 3600.0});
  const auto oblivious =
      oblivious_sim.run(to_io_jobs(run.jobs, dense, /*oracle=*/true));
  const std::span<const double> series(oblivious.actual_io_series);
  const double cap = util::mean(series) + util::stddev(series);

  util::Table table({"policy", "over-cap minutes", "mean wait (min)",
                     "mean slowdown"});
  const auto report = [&](const char* name, const sched::IoAwareResult& r) {
    table.add_row(
        {name,
         std::to_string(r.oversubscribed_minutes > 0
                            ? r.oversubscribed_minutes
                            : sched::count_over_cap_minutes(
                                  r.actual_io_series, cap)),
         util::fmt(r.mean_wait_seconds / 60.0, 2),
         util::fmt(r.mean_slowdown, 2)});
  };
  report("oblivious (no IO awareness)", oblivious);

  sched::IoAwareSimulator oracle_sim({1296, cap, 4.0 * 3600.0});
  report("IO-aware, oracle bandwidths",
         oracle_sim.run(to_io_jobs(run.jobs, dense, /*oracle=*/true)));

  sched::IoAwareSimulator prionn_sim({1296, cap, 4.0 * 3600.0});
  report("IO-aware, PRIONN bandwidths",
         prionn_sim.run(to_io_jobs(run.jobs, dense, /*oracle=*/false)));

  std::printf("IO cap for admission: %.3e B/s (mean + 1 sigma of the "
              "oblivious schedule)\n\n", cap);
  std::printf("%s", table.to_string().c_str());
  std::printf("\nexpected shape: both IO-aware policies cut over-cap "
              "minutes sharply vs oblivious at a modest wait-time cost; "
              "PRIONN lands near the oracle\n");
  return 0;
}
