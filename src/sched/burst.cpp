#include "sched/burst.hpp"

#include <algorithm>
#include <span>

#include "util/stats.hpp"

namespace prionn::sched {

double burst_threshold(const std::vector<double>& series) {
  const std::span<const double> s(series);
  return util::mean(s) + util::stddev(s);
}

std::vector<bool> detect_bursts(const std::vector<double>& series,
                                double threshold) {
  std::vector<bool> bursts(series.size());
  for (std::size_t i = 0; i < series.size(); ++i)
    bursts[i] = series[i] > threshold;
  return bursts;
}

BurstScore score_bursts(const std::vector<bool>& actual,
                        const std::vector<bool>& predicted,
                        std::size_t half_window) {
  const std::size_t n = std::min(actual.size(), predicted.size());
  const auto any_in_window = [&](const std::vector<bool>& xs,
                                 std::size_t center) {
    const std::size_t lo = center >= half_window ? center - half_window : 0;
    const std::size_t hi = std::min(n, center + half_window + 1);
    for (std::size_t i = lo; i < hi; ++i)
      if (xs[i]) return true;
    return false;
  };

  BurstScore score;
  for (std::size_t i = 0; i < n; ++i) {
    if (actual[i]) {
      if (any_in_window(predicted, i))
        ++score.true_positives;
      else
        ++score.false_negatives;
    }
    if (predicted[i] && !any_in_window(actual, i)) ++score.false_positives;
  }
  return score;
}

}  // namespace prionn::sched
