// Multi-shard testbed: one simulated machine hosting a ShardManager fleet
// plus the full client population, with a fault-schedule seam for crash /
// stall injection against individual shards. The harvest exposes what the
// failover bench and the sharding tests assert on: client survival,
// supervisor actions, per-shard recovery stats, and each live shard's
// journal digest stream (for cross-run bit-identity checks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bots/client_driver.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/obs/slo.hpp"
#include "src/shard/manager.hpp"
#include "src/spatial/map.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::obs {
class FleetObs;
}

namespace qserv::harness {

struct ShardExperimentConfig {
  shard::Config fleet;  // manager config; fleet.server is the engine template
  int players = 64;     // total, striped across shards at join
  vt::Duration warmup = vt::seconds(2);
  vt::Duration measure = vt::seconds(8);
  vt::Duration client_frame = vt::millis(33);
  float bot_aggression = 0.8f;
  float bot_grenade_ratio = 0.3f;
  uint64_t seed = 1;
  vt::Duration client_silence_timeout{};
  bots::ClientDriver::ChurnConfig churn;
  // Network fault episodes (loss bursts, partitions), as in experiment.hpp.
  std::function<void(net::VirtualNetwork&)> configure_network;
  // Fleet fault schedule: called after the manager is built and before
  // anything starts; use platform.call_after to crash/stall shards mid-run.
  std::function<void(vt::Platform&, shard::ShardManager&)> schedule_faults;
  // Machine model. Sharded runs host shards*threads server fibers, so the
  // default is wider than the paper's quad testbed.
  vt::SimPlatform::MachineConfig machine{.cores = 8, .ht_per_core = 2};
  std::shared_ptr<const spatial::GameMap> map;
  // Fleet observability plane, caller-owned (the merged trace and the
  // federated metrics must outlive the run). When set, the harness
  // attaches it to the manager before start and drives an SLO evaluation
  // window every obs_period starting at the warmup boundary (warmup
  // joins would read as lost clients), plus a final window at shutdown.
  obs::FleetObs* fleet_obs = nullptr;
  vt::Duration obs_period = vt::millis(500);
};

struct ShardExperimentResult {
  // Client side.
  int connected = 0;  // clients holding a live session at the end
  double response_rate = 0.0;
  double response_ms_mean = 0.0;
  double response_ms_p95 = 0.0;
  uint64_t client_moves_sent = 0;
  uint64_t client_replies = 0;
  uint64_t client_sessions = 0;
  uint64_t silence_reconnects = 0;

  // Fleet side.
  int shard_connected = 0;  // registry-side sum over live shards
  uint64_t handoffs_out = 0;
  uint64_t handoffs_in = 0;
  uint64_t supervisor_ticks = 0;
  // Containment accounting (manager-level atomics).
  uint64_t handoffs_returned = 0;  // stranded transfers bounced to source
  uint64_t overflow_sheds = 0;     // transfers dropped at a full mailbox

  struct PerShard {
    shard::ShardState state = shard::ShardState::kHealthy;
    bool down = false;
    int restores = 0;
    uint64_t escalations = 0;
    double last_pause_ms = 0.0;
    bool last_used_tail = false;
    shard::RestoreMode last_mode = shard::RestoreMode::kNone;
    core::Server::RestoreStats last_stats{};
    recovery::LoadError last_error{};
    uint64_t shed_sessions = 0;
    uint64_t backoff_waits = 0;
    bool breaker_tripped = false;
    shard::ShedReason shed_reason = shard::ShedReason::kNone;
    uint64_t frames = 0;
    int connected = 0;
    uint64_t handoffs_out = 0;
    uint64_t handoffs_in = 0;
    uint64_t invariant_violations = 0;
    // (frame, digest) pairs decoded from the shard's journal ring — the
    // cross-run bit-identity evidence for unaffected shards.
    std::vector<std::pair<uint64_t, uint64_t>> journal_digests;
  };
  std::vector<PerShard> shards;

  // Fleet observability harvest (cfg.fleet_obs configured; zero/empty
  // otherwise).
  uint64_t handoff_flows = 0;  // causal flow ids issued fleet-wide
  uint64_t slo_evaluations = 0;
  std::vector<obs::SloBreach> slo_breaches;

  uint64_t sim_events = 0;
  double host_seconds = 0.0;
};

ShardExperimentResult run_shard_experiment(const ShardExperimentConfig& cfg);

}  // namespace qserv::harness
