// Fleet observability plane: one object that watches an entire
// multi-shard fleet — the shard layer calls it directly at its
// interesting moments (engine generations coming up, supervisor state
// transitions, cross-shard session handoffs) — and turns it into three
// coherent artifacts —
//
//  * one merged Chrome trace: every shard engine renders as its own
//    Chrome process (pid = shard_pid_base + shard), worker spans under
//    it, a per-shard handoff track carrying flow-annotated spans (a
//    session migrating A→B draws as a connected arrow between the two
//    shards' timelines), and a per-shard supervisor track carrying
//    instant events for quarantine / restore / tail-replay / shed;
//
//  * live metrics: each shard keeps its own MetricsRegistry (re-attached
//    across supervisor rebuilds, so a restored engine keeps reporting its
//    frame and lock histograms), and the plane's own fleet registry holds
//    what the fleet SLOs read — the last recovery pause, the lost-client
//    count and the handoff-latency histogram. Event counts (escalations,
//    restores, sheds, returned and overflowed handoffs) are kept by the
//    shard layer itself (ShardSupervisor::Report, Shard::restores(), the
//    manager's atomics), not duplicated here;
//
//  * an SLO verdict: an obs::SloMonitor evaluated per observation window
//    over every shard's snapshot plus the fleet snapshot, with breaches
//    kept as structured events and emitted as trace instants.
//
// Track-writer discipline (the tracer is wait-free because each track
// has one writer at a time): worker tracks are written by their engine
// thread; the handoff track of shard i only from i's master window; the
// supervisor track of shard i and the SLO track only from platform timer
// context (ticks are self-rescheduling, so they never overlap
// themselves). The shed path writes a dead shard's tracks from the
// supervisor — its engine is quiesced, so the single-writer rule holds.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"

namespace qserv::core {
class ParallelServer;
}

namespace qserv::shard {
class ShardManager;
}

namespace qserv::obs {

class FleetObs {
 public:
  struct Config {
    std::vector<SloSpec> slos = SloMonitor::default_fleet_slos();
    // >0 arms the lost-client accounting (fleet.clients.lost = expected
    // minus the fleet-wide connected count, floored at zero).
    int expected_clients = 0;
    int fleet_pid = 1;       // Chrome pid of the fleet-level tracks
    int shard_pid_base = 2;  // shard i renders as pid shard_pid_base + i
  };

  // `tracer` may be null: metrics and SLO evaluation still run, only the
  // timeline artifacts are skipped.
  explicit FleetObs(Tracer* tracer);
  FleetObs(Tracer* tracer, Config cfg);

  FleetObs(const FleetObs&) = delete;
  FleetObs& operator=(const FleetObs&) = delete;

  // Binds to a fleet: registers as the manager's observer, names the
  // trace processes, and attaches tracer + per-shard registry to every
  // engine. Call after the ShardManager is built and before start();
  // this object must outlive the manager's run.
  void attach(shard::ShardManager& mgr);

  // --- shard-layer events (ShardManager::observer()) ---
  // Each note names the calling context; the track-writer discipline
  // above hangs off it.

  // Supervisor timer context, engine not yet started (initial
  // generations are attached by attach() instead): a rebuilt engine
  // generation exists. Re-attaches per-engine instrumentation, or the
  // restored shard goes dark (no spans, no frame histograms) for the
  // rest of the run.
  void on_engine_built(int shard, core::ParallelServer& server);
  // Supervisor timer context: kHealthy -> kQuarantined; `why` is a
  // static string: "crash-flag", "invariant-violation" or
  // "stale-heartbeat".
  void on_escalation(int shard, const char* why);
  // Supervisor timer context: quarantine exit through rebuild+restore,
  // which always ends in a live generation. `mode` names the
  // fallback-chain step that produced it: "tail-replay" (then
  // `tail_frames` were replayed), "checkpoint-only" or "fresh-rebuild".
  void on_restore(int shard, uint64_t tail_frames, double pause_ms,
                  const char* mode);
  // Supervisor timer context: quarantine exit through shedding,
  // `sessions` relocated, shard down. `why` is a static string: "budget"
  // (max_restores exhausted), "crash-loop" (circuit breaker tripped),
  // or "quarantine-cap" (too many simultaneous quarantines;
  // lowest-priority shard degraded away).
  void on_shed(int shard, uint64_t sessions, const char* why);
  // `src`'s master window: session `flow` extracted from `src`, queued
  // toward `dst`.
  void on_handoff_out(int src, int dst, uint64_t flow);
  // Supervisor timer context: the same, originated by the shed path
  // (`src`'s engine is quiesced and being dismantled).
  void on_shed_handoff(int src, int dst, uint64_t flow);
  // `dst`'s master window: session `flow` adopted by `dst` (which may
  // differ from the intended target when the mailbox forwarded past a
  // down shard).
  void on_handoff_in(int dst, uint64_t flow);
  // Session `flow`, stranded at `at_shard`, returned toward `to_shard`.
  // `supervisor_ctx` names the caller: true = the supervisor's
  // adopt-timeout reclaim (timer context, writes at_shard's supervisor
  // track), false = at_shard's own master window exhausting the adopt
  // retry budget (writes its handoff track).
  void on_handoff_returned(int at_shard, int to_shard, uint64_t flow,
                           bool supervisor_ctx);
  // Any master window or the supervisor: a post against `target`'s full
  // mailbox dropped session `flow` (an overflow shed). Forgets the flow's
  // begin stamp; no trace track is written.
  void on_handoff_overflow(int target, uint64_t flow);

  // One observation window: refreshes the lost-client gauge from the
  // heartbeat atomics, then runs the SLO monitor over every shard
  // snapshot and the fleet snapshot. Mid-run safe (reads only atomics and
  // live instruments); call from platform timer context, post-warmup,
  // and once after the run stops.
  void evaluate_window();

  MetricsRegistry& shard_metrics(int i) { return *shard_regs_[i]; }
  MetricsRegistry& fleet_metrics() { return fleet_reg_; }
  SloMonitor& slo() { return slo_; }
  const SloMonitor& slo() const { return slo_; }
  Tracer* tracer() const { return tracer_; }
  int shard_pid(int shard) const { return cfg_.shard_pid_base + shard; }

 private:
  void attach_engine(int shard, core::ParallelServer& server);
  int64_t now_ns() const;
  void note_flow_begin(int src_track, const char* span_name, int dst,
                       uint64_t flow);

  Tracer* tracer_;
  Config cfg_;
  shard::ShardManager* mgr_ = nullptr;

  std::vector<std::unique_ptr<MetricsRegistry>> shard_regs_;
  MetricsRegistry fleet_reg_;
  SloMonitor slo_;

  // Trace geometry (all -1 / empty when tracer_ == null).
  std::vector<int> handoff_track_;     // written by shard's master window
  std::vector<int> supervisor_track_;  // written by supervisor ticks
  std::vector<int> generation_;        // engine generations seen per shard
  int slo_track_ = -1;

  // Cached fleet instruments (stable pointers into fleet_reg_).
  Gauge* last_pause_ms_ = nullptr;
  Gauge* lost_ = nullptr;
  HistogramMetric* handoff_latency_ms_ = nullptr;

  // Lost-client accounting state (see evaluate_window): latched until
  // the fleet has been seen fully connected once, debounced across two
  // consecutive windows.
  bool saw_full_fleet_ = false;
  int prev_raw_lost_ = 0;

  // flow id -> extraction time; inserted by any master window (or the
  // supervisor's shed), erased at adoption, hence the mutex.
  std::mutex flows_mu_;
  std::unordered_map<uint64_t, int64_t> flow_begin_ns_;
};

}  // namespace qserv::obs
