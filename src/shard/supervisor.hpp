// Shard supervisor: a platform timer (not an engine thread) that watches
// every shard's heartbeat and drives the failure state machine
//
//   kHealthy ──crash flag / invariant violation / stalled heartbeat──▶
//   kQuarantined (engine stopped, waiting for worker quiescence) ──▶
//     restore budget left:  rebuild + restore  ──▶ kHealthy
//     budget exhausted / circuit breaker tripped / quarantine cap
//       exceeded: shed ──▶ kShed (sessions relocated round-robin to
//       live shards, shard stays down)
//
// Cascading-failure containment layered on the basic machine:
//  - crash-loop circuit breaker: rebuilds are spaced by exponential
//    backoff (restore_backoff doubling per restore, clamped), and a
//    shard that needed >= crash_loop_max_rebuilds rebuilds inside
//    kCrashLoopWindow is shed instead of rebuilt again.
//  - quarantine cap: with more than kQuarantineCap shards simultaneously
//    quarantined the lowest-priority one (fewest clients at its last
//    beat; tie -> highest index) is shed to stop the repair queue from
//    starving everyone; the rest recover staggered, at most
//    kMaxConcurrentRestores rebuilds per tick.
//  - stale-handoff reclaim: after every supervision pass, transfers that
//    sat in a non-healthy shard's mailbox past adopt_timeout are pulled
//    back and re-posted toward their source shard, not left stranded.
//
// The tick reads ONLY the heartbeat atomics a shard's hook publishes in
// on_frame_end (plus Shard's own atomics) — never the engine's plain
// fields — so the supervisor is data-race-free against running workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/server.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/shard/shard.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::shard {

class ShardManager;

enum class ShardState : uint8_t { kHealthy, kQuarantined, kShed };
const char* shard_state_name(ShardState s);

// Why the supervisor shed a shard instead of restoring it.
enum class ShedReason : uint8_t {
  kNone,           // not shed
  kBudget,         // max_restores exhausted
  kCrashLoop,      // crash-loop circuit breaker tripped
  kQuarantineCap,  // too many simultaneous quarantines; lowest priority
  kRestoreFailed,  // the rebuild+restore itself failed
};
const char* shed_reason_name(ShedReason r);

class ShardSupervisor {
 public:
  ShardSupervisor(vt::Platform& platform, ShardManager& mgr);
  ~ShardSupervisor();

  // Arms the periodic tick. Call after every shard has started.
  void start();
  // Disarms: the current tick (if any) is the last. Safe to call twice.
  void request_stop();

  // Per-shard supervision record. Plain fields written by the tick; read
  // them only after the run has stopped (bench/test harvest) or from the
  // tick itself.
  struct Report {
    ShardState state = ShardState::kHealthy;
    int restores = 0;          // successful supervised restorations
    uint64_t escalations = 0;  // healthy -> quarantined transitions
    double last_pause_ms = 0.0;
    bool last_used_tail = false;
    RestoreMode last_mode = RestoreMode::kNone;
    core::Server::RestoreStats last_stats{};
    recovery::LoadError last_error{};
    uint64_t shed_sessions = 0;  // transfers relocated by the shed path
    // --- containment accounting ---
    uint64_t backoff_waits = 0;  // ticks spent quiesced but held back by
                                 // backoff or the restore stagger
    bool breaker_tripped = false;  // crash-loop circuit breaker fired
    // Why the shard was shed; kNone while not kShed.
    ShedReason shed_reason = ShedReason::kNone;
  };
  const Report& report(int shard) const { return track_[shard].report; }

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  void tick();
  void schedule_next();
  void supervise(int i, int64_t now_ns, int cap_victim,
                 int& restores_this_tick);
  void do_shed(int i, ShedReason why);
  // Quarantine-cap victim: the quarantined shard with the fewest clients
  // at its last beat (tie -> highest index); -1 when the cap holds.
  int pick_cap_victim() const;
  // Pulls transfers older than adopt_timeout out of every non-healthy
  // shard's mailbox and re-posts them toward their source shard.
  void reclaim_stale_handoffs(int64_t now_ns);

  struct Track {
    Report report;
    // Earliest time the next rebuild may run (exponential backoff).
    int64_t next_restore_at_ns = 0;
    // Rebuild timestamps inside the sliding crash-loop window.
    std::vector<int64_t> rebuild_at_ns;
  };

  vt::Platform& platform_;
  ShardManager& mgr_;
  std::vector<Track> track_;
  // Round-robin cursor for spreading shed sessions over live shards.
  int shed_cursor_ = 0;
  std::atomic<uint64_t> ticks_{0};
  bool started_ = false;
  // Atomic: request_stop() may come from the harness thread while a tick
  // is in flight on the platform's timer context.
  std::atomic<bool> stop_{false};

  // Liveness gate shared with every scheduled tick callback. On the real
  // platform a pending call_after survives join_all() (only *in-flight*
  // timer callbacks are waited for), so a late tick can fire after this
  // supervisor — and the whole ShardManager — is gone. The callback
  // captures the gate by shared_ptr, locks it, and bails out if the
  // destructor already marked it dead; the destructor's lock also blocks
  // until any concurrently running tick finishes.
  struct TickGate {
    std::mutex mu;
    bool alive = true;
  };
  std::shared_ptr<TickGate> gate_;
};

}  // namespace qserv::shard
