// Experiment runner: builds a complete simulated testbed (SMP machine,
// network, server, client population), runs warmup + measurement windows
// in virtual time, and collects every metric the paper's figures need.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/bots/client_driver.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/core/config.hpp"
#include "src/core/frame_stats.hpp"
#include "src/obs/metrics.hpp"
#include "src/spatial/map.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::obs {
class Tracer;
}

namespace qserv::harness {

enum class ServerMode : uint8_t { kSequential, kParallel };

struct ExperimentConfig {
  ServerMode mode = ServerMode::kParallel;
  core::ServerConfig server;
  int players = 64;
  vt::Duration warmup = vt::seconds(2);
  vt::Duration measure = vt::seconds(8);
  vt::Duration client_frame = vt::millis(33);
  float bot_aggression = 0.8f;
  float bot_grenade_ratio = 0.3f;
  uint64_t seed = 1;
  // Client lifecycle knobs (chaos workloads): reconnect on server silence,
  // and scheduled crash/quit/rejoin churn. Defaults leave both off.
  vt::Duration client_silence_timeout{};
  bots::ClientDriver::ChurnConfig churn;
  // Record the per-frame, per-thread request counts (§5.2 analysis).
  bool frame_trace = false;
  // Observability attachments (obs/), non-owning; both must outlive the
  // run. `tracer` records per-thread phase spans on the server (export
  // Chrome trace JSON afterwards); `metrics` receives live instruments
  // (frame durations, lock waits) plus an end-of-run harvest of network,
  // fault and contention counters. With `metrics_period` > 0 the registry
  // is additionally snapshotted on that period into
  // ExperimentResult::metrics_series.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  vt::Duration metrics_period{};
  // Called once after the network is built and before the server starts;
  // benches and tests use it to schedule fault episodes (packet bursts,
  // partitions, thread stalls) against the run.
  std::function<void(net::VirtualNetwork&)> configure_network;
  // Machine model: the paper's quad Xeon with 2-way hyper-threading.
  vt::SimPlatform::MachineConfig machine{};
  // Map shared across experiments of a sweep (generated once).
  std::shared_ptr<const spatial::GameMap> map;
  // After the run, replay the journal from the latest checkpoint and
  // cross-check per-frame digests (requires server.recovery.enabled; see
  // ExperimentResult::replay_*).
  bool verify_replay = false;
};

struct ExperimentResult {
  // Client-side (§4 metrics).
  double response_rate = 0.0;  // replies/s
  double response_ms_mean = 0.0;
  double response_ms_p50 = 0.0;
  double response_ms_p95 = 0.0;
  double snapshot_entities_mean = 0.0;  // visibility proxy
  int connected = 0;

  // Server-side breakdowns.
  core::Breakdown breakdown;        // summed across threads
  core::BreakdownPct pct;           // percentage view
  std::vector<core::Breakdown> per_thread;

  // Lock analysis (Figure 7 / §5.1).
  core::LockStats locks;
  double distinct_leaves_per_request_pct = 0.0;
  double relock_pct = 0.0;  // fraction of lock requests that were re-locks
  double leaves_locked_per_frame_pct = 0.0;
  double leaves_shared_per_frame_pct = 0.0;
  double lock_ops_per_leaf_per_frame = 0.0;

  // §5.2 wait analysis.
  double requests_per_thread_frame_mean = 0.0;
  double requests_per_thread_frame_stddev = 0.0;
  double inter_wait_world_fraction = 0.0;  // of total inter-frame wait

  // Volume counters.
  // Per-thread (frame id, moves processed) traces when frame_trace is on.
  std::vector<std::vector<std::pair<uint64_t, int>>> frame_traces;

  uint64_t frames = 0;
  uint64_t requests = 0;
  uint64_t replies = 0;
  uint64_t overflow_drops = 0;
  uint64_t reassignments = 0;  // dynamic-assignment client migrations
  // §5.2 frame-trace entries discarded at the per-thread cap.
  uint64_t frame_trace_dropped = 0;
  // Periodic registry snapshots (metrics + metrics_period configured).
  std::vector<obs::TimedSnapshot> metrics_series;

  // Lifecycle / robustness counters (server + client sides).
  uint64_t evictions = 0;           // clients the server timed out
  uint64_t rejected_connects = 0;   // connects refused server-full
  uint64_t invariant_violations = 0;
  uint64_t client_sessions = 0;
  uint64_t client_crashes = 0;
  uint64_t client_quits = 0;
  uint64_t client_rejoins = 0;
  uint64_t client_evictions_seen = 0;

  // Resilience: backpressure / admission / governor / watchdog counters.
  uint64_t rejected_busy = 0;        // connects refused by admission control
  uint64_t moves_rate_limited = 0;   // moves dropped by the token bucket
  uint64_t packets_oversized = 0;    // datagrams over kMaxPacketBytes
  uint64_t moves_coalesced = 0;      // queued moves folded under degradation
  uint64_t governor_evictions = 0;   // clients shed at the last rung
  uint64_t governor_steps_down = 0;
  uint64_t governor_steps_up = 0;
  uint64_t frames_degraded = 0;      // frames spent above kNormal
  int max_degrade_level = 0;
  uint64_t stalls_injected = 0;      // kThreadStall episodes workers honored
  uint64_t stalls_detected = 0;      // watchdog declared a worker wedged
  uint64_t stalls_recovered = 0;     // wedged workers that came back
  uint64_t stall_reassignments = 0;  // clients migrated off wedged workers
  uint64_t client_rejected_busy = 0; // kServerBusy rejects clients observed
  uint64_t client_connect_retries = 0;
  // Client-side offered/served volume: replies received per move sent is
  // the overload benches' response-fraction metric (server-side `replies`
  // counts sends, which can outnumber what overflowing client sockets
  // actually deliver).
  uint64_t client_moves_sent = 0;
  uint64_t client_replies = 0;

  // Crash recovery (populated when cfg.server.recovery.enabled).
  uint64_t checkpoints_taken = 0;
  uint64_t checkpoint_bytes = 0;     // latest encoded image size
  int64_t checkpoint_pause_ns = 0;   // worst host-clock serialize pause
  uint64_t journal_frames = 0;       // frames sealed into the ring
  uint64_t journal_records = 0;      // records staged overall
  uint64_t blackbox_dumps = 0;
  std::string blackbox_last_path;
  uint64_t resumed_clients = 0;      // slots re-adopted after warm restart
  bool replay_ran = false;           // cfg.verify_replay executed
  bool replay_ok = false;            // every replayed frame digest matched
  std::string replay_summary;

  int total_frags = 0;
  uint64_t sim_events = 0;   // scheduler events processed (determinism aid)
  double host_seconds = 0.0; // wall time the simulation took to run
  // Steady-state heap allocations per frame across the measurement
  // window (the hot-path allocation regression gate). -1 when the binary
  // registered no allocation probe (src/core/alloc_probe.hpp).
  double allocs_per_frame = -1.0;
};

// Runs one experiment to completion in virtual time.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

// The default workload: the large deathmatch map the whole evaluation
// uses (cached across calls with the same seed).
std::shared_ptr<const spatial::GameMap> default_map(uint64_t seed = 7);

// Canonical configuration factory matching the paper's testbed: 4 cores x
// 2-way HT machine, given thread count / player count / lock policy.
ExperimentConfig paper_config(ServerMode mode, int threads, int players,
                              core::LockPolicy policy);

}  // namespace qserv::harness
