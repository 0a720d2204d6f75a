// IO-burst detection and windowed scoring (section 4.3). A burst is any
// timeline bucket whose aggregate bandwidth exceeds mean + one standard
// deviation of the *actual* system IO distribution (the paper's k = 1,
// marked at 1.35e9 bytes/s on Cab). Predicted bursts are matched to actual
// bursts within a tolerance window, yielding the sensitivity/precision
// curves of Figs. 13 and 15.
#pragma once

#include <cstddef>
#include <vector>

namespace prionn::sched {

/// The burst threshold of a reference series (the actual system IO):
/// its mean plus one standard deviation.
double burst_threshold(const std::vector<double>& series);

/// Flag buckets above the threshold.
std::vector<bool> detect_bursts(const std::vector<double>& series,
                                double threshold);

struct BurstScore {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;

  double sensitivity() const noexcept {
    const auto denom = true_positives + false_negatives;
    return denom ? static_cast<double>(true_positives) /
                       static_cast<double>(denom)
                 : 0.0;
  }
  double precision() const noexcept {
    const auto denom = true_positives + false_positives;
    return denom ? static_cast<double>(true_positives) /
                       static_cast<double>(denom)
                 : 0.0;
  }
};

/// Windowed matching: an actual burst at bucket i is a true positive if a
/// predicted burst exists within +-half_window buckets; a predicted burst
/// with no actual burst in its window is a false positive. For the paper's
/// "5 minute window" (1-minute buckets) pass half_window = 2.
BurstScore score_bursts(const std::vector<bool>& actual,
                        const std::vector<bool>& predicted,
                        std::size_t half_window);

}  // namespace prionn::sched
