// Deterministic seed-corpus generator. Emits, for every harness, a small
// set of *valid* documents produced by the real writers (write_checkpoint,
// save_network, EventLog, save_trace, ...) plus deterministic mutations of
// them — so a fuzzer starts from deep inside each format instead of
// rediscovering magic numbers, and the committed corpus doubles as a
// writer/reader round-trip regression set. Every generated file is
// replayed through its harness before being written; the tool refuses to
// emit a seed that crashes.
//
// Usage: make_corpus [corpus_root]   (default: the committed fuzz/corpus)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "harness/fuzz_entry.hpp"
#include "harness/generators.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/serialize.hpp"
#include "obs/events.hpp"
#include "trace/job_record.hpp"
#include "trace/store.hpp"
#include "util/rng.hpp"

#ifndef PRIONN_FUZZ_CORPUS_DIR
#define PRIONN_FUZZ_CORPUS_DIR "fuzz/corpus"
#endif

namespace fs = std::filesystem;
using prionn::fuzz::mutate;

namespace {

std::vector<std::string> checkpoint_seeds() {
  std::vector<std::string> seeds;
  const std::string payloads[] = {std::string(),
                                  std::string("not a checkpoint payload"),
                                  std::string(256, '\0')};
  for (const auto& payload : payloads) {
    std::ostringstream os(std::ios::binary);
    prionn::core::write_checkpoint(os, payload);
    seeds.push_back(std::move(os).str());
  }
  // A complete, decodable checkpoint: tiny predictor + replay cursor.
  prionn::core::PredictorOptions opts;
  opts.image.rows = opts.image.cols = 16;
  opts.image.transform = prionn::core::Transform::kBinary;
  opts.model = prionn::core::ModelKind::kFullyConnected;
  opts.preset = prionn::core::ModelPreset::kFast;
  opts.runtime_bins = 8;
  opts.io_bins = 4;
  opts.predict_io = false;
  const prionn::core::PrionnPredictor predictor(opts);
  prionn::core::OnlineCheckpointState state;
  state.next_index = 7;
  state.submissions_since_train = 3;
  std::ostringstream os(std::ios::binary);
  prionn::core::write_checkpoint(
      os, prionn::core::encode_checkpoint(predictor.snapshot(), state));
  seeds.push_back(std::move(os).str());
  return seeds;
}

std::vector<std::string> network_seeds() {
  prionn::util::Rng rng(42);
  prionn::nn::Network net;
  net.emplace<prionn::nn::Flatten>();
  net.emplace<prionn::nn::Dense>(6, 4, rng);
  net.emplace<prionn::nn::Relu>();
  net.emplace<prionn::nn::Dense>(4, 3, rng);
  std::ostringstream os(std::ios::binary);
  prionn::nn::save_network(os, net);
  return {std::move(os).str()};
}

std::vector<std::string> json_seeds() {
  return {
      R"({"type":"retrain","window_id":3})",
      R"({"a":1.5,"b":null,"c":true,"d":"x\"y\\z","e":[1,2,3]})",
      R"({"empty":[],"nested":"{\"not\":\"parsed\"}","neg":-1e-3})",
      "{}",
  };
}

std::vector<std::string> event_seeds() {
  prionn::obs::EventLog log;
  prionn::obs::RetrainEvent r;
  r.window_id = 4;
  r.job_index = 512;
  r.window_size = 100;
  r.holdback_size = 10;
  r.loss = {0.9, 0.7, 0.5};
  r.holdback_accuracy = 0.85;
  r.accepted = true;
  r.duration_ms = 123.5;
  log.append(r);
  prionn::obs::WindowEvent w;
  w.window_id = 5;
  w.first_job_index = 612;
  w.predictions = 100;
  w.from_neural_net = 90;
  w.from_random_forest = 8;
  w.from_requested = 2;
  w.checkpoint_generation = 4;
  log.append(w);
  prionn::obs::IngestEvent i;
  i.source = "swf:anl-intrepid";
  i.rows_accepted = 68936;
  i.rows_quarantined = 42;
  i.quarantined_fraction = 42.0 / 68978.0;
  log.append(i);
  return log.lines();
}

std::vector<std::string> swf_seeds() {
  return {
      "; Computer: fuzz fixture\n"
      "; MaxNodes: 128\n"
      "1 0 10 3600 64 3600 -1 64 7200 -1 1 1 1 1 1 -1 -1 -1\n"
      "2 30 -1 1800 32 1790 -1 32 3600 -1 0 2 1 2 1 -1 -1 -1\n"
      "3 60 5 60 1 55 -1 1 120 -1 1 3 2 1 2 -1 -1 -1\n",
      "1 0 0 1 1 1 -1 1 1 -1 1 1 1 1 1 -1 -1 -1\n",
  };
}

std::vector<std::string> trace_seeds() {
  std::vector<prionn::trace::JobRecord> jobs(2);
  jobs[0].job_id = 1;
  jobs[0].user = "u001";
  jobs[0].job_name = "sim_a";
  jobs[0].script = "#!/bin/bash\n#SBATCH -t 01:00:00\n./a.out\n";
  jobs[0].requested_minutes = 60;
  jobs[0].runtime_minutes = 42.5;
  jobs[1].job_id = 2;
  jobs[1].user = "u002";
  jobs[1].requested_nodes = 16;
  jobs[1].script = "#!/bin/bash\nsrun ./b.out --steps 100\n";
  jobs[1].runtime_minutes = 10.0;
  std::ostringstream os;
  prionn::trace::save_trace(os, jobs);
  return {std::move(os).str()};
}

std::vector<std::string> script_seeds() {
  return {
      "#!/bin/bash\n"
      "#SBATCH --job-name=wrf_run\n"
      "#SBATCH --nodes=32\n"
      "#SBATCH --ntasks=512\n"
      "#SBATCH --time=02:30:00\n"
      "cd /scratch/u001/wrf\n"
      "srun ./wrf.exe\n",
      "",
      std::string(64 * 64 + 7, 'x'),
  };
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root =
      argc > 1 ? fs::path(argv[1]) : fs::path(PRIONN_FUZZ_CORPUS_DIR);

  const std::map<std::string, std::vector<std::string>> seeds = {
      {"checkpoint_frame", checkpoint_seeds()},
      {"nn_serialize", network_seeds()},
      {"obs_json", json_seeds()},
      {"obs_events", event_seeds()},
      {"swf_loader", swf_seeds()},
      {"trace_store", trace_seeds()},
      {"script_image", script_seeds()},
  };

  std::size_t written = 0;
  for (const auto& h : prionn::fuzz::harnesses()) {
    const auto it = seeds.find(h.name);
    if (it == seeds.end()) {
      std::fprintf(stderr, "no seed generator for harness '%s'\n", h.name);
      return 1;
    }
    const fs::path dir = root / h.name;
    fs::create_directories(dir);

    // Valid documents first, then three deterministic mutations of each:
    // the mutants land in the rejection paths right next to the accept
    // path, which is where the interesting branches live.
    std::vector<std::string> docs = it->second;
    const std::size_t valid = docs.size();
    for (std::size_t i = 0; i < valid; ++i)
      for (std::uint64_t m = 0; m < 3; ++m)
        docs.push_back(mutate(docs[i], 1000 * (i + 1) + m));

    for (std::size_t i = 0; i < docs.size(); ++i) {
      const auto& doc = docs[i];
      // Refuse to commit a seed that crashes its own harness.
      h.entry(reinterpret_cast<const std::uint8_t*>(doc.data()), doc.size());
      char name[32];
      std::snprintf(name, sizeof(name), "seed-%03zu%s", i,
                    i < valid ? "" : "-mut");
      std::ofstream os(dir / name, std::ios::binary);
      os.write(doc.data(), static_cast<std::streamsize>(doc.size()));
      ++written;
    }
  }
  std::fprintf(stderr, "wrote %zu corpus files under %s\n", written,
               root.string().c_str());
  return 0;
}
