// Declarative chaos scenarios: a scenario is a named, seed-deterministic
// composition of fault steps against a multi-shard fleet, plus the
// expectations an automated verdict checks after the run. Steps trigger
// at virtual-time offsets (or at state-dependent moments — "crash shard 2
// while its handoff mailbox is non-empty", "crash again right after each
// restore"), so a scenario replays bit-identically on the simulated
// platform: same seed, same schedule, same verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/shard_experiment.hpp"
#include "src/vthread/time.hpp"

namespace qserv::chaos {

// One fault step. `at` is virtual time from run start (t0); which other
// fields matter depends on `kind`.
struct FaultStep {
  enum class Kind : uint8_t {
    // Engine faults (scheduled against the live fleet).
    kCrashShard,        // inject_crash() on `shard` at `at`
    kCorruptCheckpoint, // flip a byte in `shard`'s next captured image
    // State-dependent crash hooks: armed at `at`, fire when the
    // condition holds (polled every few virtual ms until run end).
    kCrashWhenMailboxBusy,  // crash `shard` once its mailbox is non-empty
    kCrashOnRestore,        // re-crash `shard` after each of its next
                            // `count` supervised restores (crash loop)
    // Network faults (scheduled on the FaultScheduler timeline).
    kStallWorker,       // wedge worker `thread` of `shard` for `dur`
    kLossBurst,         // fleet-wide: drop packets with probability `loss`
    kLatencySpike,      // fleet-wide: add `extra_latency` one-way
    kPartitionClients,  // sever every client port from `shard`'s engine
  };

  Kind kind = Kind::kCrashShard;
  vt::Duration at{};  // trigger / episode start, from t0
  int shard = 0;
  int thread = 0;            // kStallWorker
  vt::Duration dur{};        // episode length (network faults, stalls)
  float loss = 0.5f;         // kLossBurst
  vt::Duration extra_latency{};  // kLatencySpike
  int count = 1;             // kCrashOnRestore: crashes to deliver
};

const char* fault_kind_name(FaultStep::Kind k);

// A named fault composition plus the expectations that score it. The
// verdict always checks the universal guards — zero lost clients at the
// end, zero invariant violations, recovery pauses inside the budget (or
// an explicitly allowed SLO breach = degraded-mode verdict), digest
// bit-identity on `digest_shards` against the no-fault baseline — and
// the scenario-specific expectations below.
struct Scenario {
  std::string name;         // point label in the bench export
  std::string description;  // one line, printed in the campaign report
  std::vector<FaultStep> steps;

  // Shards whose per-frame journal digest streams must be bit-identical
  // to the baseline run (empty = no digest claim; scenarios whose tweak
  // or fault reach every shard cannot make one).
  std::vector<int> digest_shards;
  // Shards that must end kHealthy with restores >= 1.
  std::vector<int> expect_restored;
  // true: at least one supervisor escalation must occur; false: none may
  // (e.g. a client-side partition must not read as engine failure).
  bool expect_escalation = true;
  // Shard expected to end kShed (-1 = any shed is a failure), and the
  // supervisor's shed reason (kNone = unchecked).
  int expect_shed = -1;
  shard::ShedReason expect_shed_reason = shard::ShedReason::kNone;
  // Expected restore fallback mode / load error on `mode_shard`
  // (restore_mode_name / load_error_name strings; nullptr = unchecked).
  int mode_shard = -1;
  const char* expect_mode = nullptr;
  const char* expect_error = nullptr;
  // Lower bound on fleet-wide stranded-handoff returns.
  uint64_t expect_returns_min = 0;
  // false: the silence-reconnect backstop must never fire (in-place
  // resume is the acceptance path); true: reconnects are part of the
  // story (fresh rebuild, long outage).
  bool allow_reconnects = false;
  // SLO names allowed to breach. Any breach in this list downgrades the
  // verdict to "degraded" instead of failing it; a breach outside the
  // list fails the scenario.
  std::vector<std::string> allow_slos;

  // Optional config mutation (budgets, margins, timeouts) applied to the
  // cloned base config before the steps are installed. A tweak that
  // perturbs engine determinism must come with digest_shards = {}.
  std::function<void(harness::ShardExperimentConfig&)> tweak;
  // Optional scenario-specific assertions; push a message per failure.
  std::function<void(const harness::ShardExperimentResult&,
                     std::vector<std::string>&)>
      extra;
};

}  // namespace qserv::chaos
