// Chaos campaign engine: runs a list of Scenarios against one base fleet
// configuration and scores each with an automated verdict. The campaign
// first runs the base config once with no faults (the baseline), then
// each scenario as an independent simulated run — same seed, same
// machine, faults installed per the scenario's steps — and compares the
// harvest against the scenario's expectations plus the universal guards:
//
//   * zero lost clients: every driver-side client holds a live session
//     at the end of every scenario;
//   * zero invariant violations on every live shard;
//   * SLO monitor verdicts: every breach must be in the scenario's
//     allow list (allowed breaches mark the verdict "degraded", an
//     explicit degraded-mode verdict, never a silent pass). Every
//     supervised restore's pause is judged here, through the
//     recovery_pause SLO;
//   * digest identity: the scenario's unaffected shards replay their
//     per-frame journal digest streams bit-identically to the baseline.
//
// Determinism: everything runs on the simulated platform with the base
// config's seed, so a campaign is a pure function of (config, scenario
// list) — a verdict flip across commits is a behavior change, not noise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/scenario.hpp"
#include "src/harness/shard_experiment.hpp"

namespace qserv::chaos {

// The automated score of one scenario run.
struct Verdict {
  bool pass = false;
  // Passed, but through an explicitly allowed SLO breach (the scenario
  // declared the degradation) rather than fully inside every budget.
  bool degraded = false;
  std::vector<std::string> failures;  // human-readable, empty on pass
  std::vector<std::string> allowed_breaches;  // SLOs that breached, allowed
};

struct ScenarioOutcome {
  std::string name;
  std::string description;
  harness::ShardExperimentResult result;
  Verdict verdict;
  // Journal frames compared bit-for-bit against the baseline (summed
  // over the scenario's digest_shards).
  uint64_t digest_frames_checked = 0;
};

struct CampaignResult {
  harness::ShardExperimentResult baseline;
  bool baseline_ok = false;
  std::vector<std::string> baseline_failures;
  std::vector<ScenarioOutcome> outcomes;

  bool all_passed() const;
  int failed_scenarios() const;
};

class Campaign {
 public:
  struct Options {
    bool verbose = false;  // narrate each run to stdout
  };

  explicit Campaign(harness::ShardExperimentConfig base);
  Campaign(harness::ShardExperimentConfig base, Options opt);

  void add(Scenario s) { scenarios_.push_back(std::move(s)); }
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  // Baseline + every scenario, in order. Each scenario is an
  // independent simulated run; the baseline runs once, first.
  CampaignResult run();

 private:
  harness::ShardExperimentConfig base_;
  Options opt_;
  std::vector<Scenario> scenarios_;
};

// The standard fault-composition suite for a 4-shard fleet (single
// crash, simultaneous multi-crash, crash loop, corrupt checkpoint,
// partitions, loss storms, crash-mid-handoff, stranded mailbox,
// quarantine cap). Trigger times derive from base.warmup/measure, so the
// suite scales with the configured run length; base must have >= 4
// shards and sessions pinned (wide boundary_margin) for the digest
// claims to hold.
std::vector<Scenario> standard_scenarios(
    const harness::ShardExperimentConfig& base);

}  // namespace qserv::chaos
