// Machine-readable bench export: serializes experiment configs + results
// into the stable "qserv-bench-v1" schema, so perf trajectories can be
// recorded (BENCH_*.json), diffed across PRs, and plotted without
// scraping the human-readable tables.
//
// Schema (all times in the units their key names):
//   {
//     "schema": "qserv-bench-v1",
//     "bench": "<bench name>",
//     "groups": [
//       { "name": "<group>", "points": [ <point>... ] }
//     ]
//   }
// where each point is
//   {
//     "label", "config": {mode, threads, players, lock_policy,
//        assign_policy, seed, warmup_s, measure_s, machine{...}},
//     "response": {rate_per_s, ms_mean, ms_p50, ms_p95, connected,
//        snapshot_entities_mean},
//     "breakdown_pct": {exec, lock_leaf, lock_parent, receive, reply,
//        world, intra_wait, inter_wait_world, inter_wait_frame, idle},
//        (core::kComponents' keys, in its order)
//     "breakdown_ms": {...same keys...},
//     "locks": {...}, "lock_analysis": {...}, "wait": {...},
//     "counters": {...}, "host_seconds",
//     "reply_share",                    // == breakdown_pct.reply
//     "allocs_per_frame"                // only when an alloc probe ran
//   }
// reply_share / allocs_per_frame are the trend gate's direction-keyed
// metrics.
#pragma once

#include <string>
#include <vector>

#include "src/harness/experiment.hpp"
#include "src/harness/sweep.hpp"
#include "src/obs/json.hpp"

namespace qserv::harness {

// Serializes one (config, result) pair as a JSON object onto `w`.
void write_result_json(obs::JsonWriter& w, const std::string& label,
                       const ExperimentConfig& cfg,
                       const ExperimentResult& r);

// Accumulates points into named groups and writes the full document.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name);

  void add(const std::string& group, const std::string& label,
           const ExperimentConfig& cfg, const ExperimentResult& r);
  void add_points(const std::string& group,
                  const std::vector<SweepPoint>& points);
  // For benches with bespoke measurements: appends a pre-serialized JSON
  // object (must be well-formed) as one point of `group`.
  void add_raw(const std::string& group, std::string point_json);

  std::string to_json() const;
  // Writes to `path`; returns false (and prints to stderr) on I/O error.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  // Group name -> pre-serialized point objects, insertion-ordered.
  std::vector<std::pair<std::string, std::vector<std::string>>> groups_;
};

}  // namespace qserv::harness
