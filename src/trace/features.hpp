// Manual feature extraction for the traditional-ML pipeline: the nine
// Table-1 features (requested time/nodes/tasks, user, group, account, job
// name, working dir, submission dir), parsed from job scripts exactly the
// way the paper's custom parsing scripts do, then label-encoded.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/label_encoder.hpp"
#include "trace/job_record.hpp"

namespace prionn::trace {

/// Raw (string/number) features pulled out of one job script.
struct ScriptFeatures {
  double requested_hours = 0.0;
  double requested_nodes = 1.0;
  double requested_tasks = 1.0;
  std::string user;
  std::string group;
  std::string account;
  std::string job_name;
  std::string working_dir;
  std::string submission_dir;

  static constexpr std::size_t kCount = 9;
};

/// Parse the SBATCH headers and well-known comment/cd lines of a script.
/// Robust to missing lines (fields keep their defaults) — the paper notes
/// that inconsistent script formats made exactly this task fragile.
ScriptFeatures parse_script(std::string_view script);

/// Encodes ScriptFeatures into fixed-width numeric rows for the
/// traditional models, holding one LabelEncoder per categorical column.
class FeatureEncoder {
 public:
  /// Encode (inserting new categories as they appear).
  std::array<double, ScriptFeatures::kCount> encode(const ScriptFeatures& f);

  /// Encode without inserting; unseen categories map to -1. Serving paths
  /// use this so the encoder state stays a pure function of the training
  /// window (prediction order must not perturb the encoding).
  std::array<double, ScriptFeatures::kCount> encode_const(
      const ScriptFeatures& f) const noexcept;

  /// Convenience: parse + encode a whole trace into a Dataset whose target
  /// is extracted by `target` (e.g. runtime, bytes read...).
  template <typename TargetFn>
  ml::Dataset encode_jobs(std::span<const JobRecord> jobs,
                          TargetFn&& target) {
    ml::Dataset data(ScriptFeatures::kCount);
    data.reserve(jobs.size());
    for (const auto& job : jobs) {
      const auto row = encode(parse_script(job.script));
      data.add_row(std::span<const double>(row.data(), row.size()),
                   target(job));
    }
    return data;
  }

 private:
  ml::LabelEncoder user_, group_, account_, job_name_, working_dir_,
      submission_dir_;
};

}  // namespace prionn::trace
