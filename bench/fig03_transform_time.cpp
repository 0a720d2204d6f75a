// Fig. 3: time to transform 500 job scripts into the image-like
// representation, for each of the four transforms. Paper shape: one-hot is
// by far the slowest; binary, simple and word2vec all finish 500 scripts
// in under three seconds.
//
//   ./build/bench/fig03_transform_time
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/script_image.hpp"
#include "embed/word2vec.hpp"
#include "trace/workload.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace prionn;

int main() {
  constexpr std::size_t kPasses = 5;
  bench::print_banner(
      "Fig. 3", "Seconds to transform 500 job scripts per transform type",
      "one-hot slowest by a wide margin; binary/simple/word2vec < 3 s",
      "500 synthetic scripts, 64x64 grid; best of " +
          std::to_string(kPasses) + " passes over the batch");

  trace::WorkloadGenerator gen(trace::WorkloadOptions::cab(520));
  const auto jobs = trace::completed_jobs(gen.generate());
  std::vector<std::string> scripts;
  for (std::size_t i = 0; i < std::min<std::size_t>(500, jobs.size()); ++i)
    scripts.push_back(jobs[i].script);

  embed::Word2VecOptions w2v;
  w2v.dimension = 4;
  w2v.epochs = 1;
  const embed::CharEmbedding embedding =
      embed::Word2VecTrainer(w2v).train(scripts);

  util::Table table({"transform", "seconds / batch", "scripts / s"});
  std::size_t checksum = 0;  // keeps every mapped batch observable
  for (const auto transform :
       {core::Transform::kBinary, core::Transform::kSimple,
        core::Transform::kOneHot, core::Transform::kWord2Vec}) {
    core::ScriptImageOptions options;
    options.transform = transform;
    const core::ScriptImageMapper mapper(
        options, transform == core::Transform::kWord2Vec
                     ? embedding
                     : embed::CharEmbedding{});
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      util::Timer timer;
      checksum += mapper.map_batch_2d(scripts).size();
      best = std::min(best, timer.seconds());
    }
    table.add_row({std::string(core::transform_name(transform)),
                   util::fmt(best, 4),
                   util::fmt(static_cast<double>(scripts.size()) / best, 0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(%zu values mapped)\n", checksum);
  return 0;
}
