#include "src/shard/supervisor.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/fleet.hpp"
#include "src/shard/manager.hpp"
#include "src/util/check.hpp"

namespace qserv::shard {

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kQuarantined:
      return "quarantined";
    case ShardState::kShed:
      return "shed";
  }
  return "?";
}

const char* shed_reason_name(ShedReason r) {
  switch (r) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kBudget:
      return "budget";
    case ShedReason::kCrashLoop:
      return "crash-loop";
    case ShedReason::kQuarantineCap:
      return "quarantine-cap";
    case ShedReason::kRestoreFailed:
      return "restore-failed";
  }
  return "?";
}

ShardSupervisor::ShardSupervisor(vt::Platform& platform, ShardManager& mgr)
    : platform_(platform), mgr_(mgr), gate_(std::make_shared<TickGate>()) {
  track_.resize(static_cast<size_t>(mgr_.shards()));
}

ShardSupervisor::~ShardSupervisor() {
  stop_.store(true, std::memory_order_release);
  // Blocks until a concurrently running tick drains, then turns every
  // still-pending timer callback into a no-op (they keep the gate alive
  // via shared_ptr, so the late lock itself is safe).
  std::lock_guard<std::mutex> lk(gate_->mu);
  gate_->alive = false;
}

void ShardSupervisor::start() {
  QSERV_CHECK(!started_);
  started_ = true;
  schedule_next();
}

void ShardSupervisor::request_stop() {
  stop_.store(true, std::memory_order_release);
}

void ShardSupervisor::schedule_next() {
  // Self-rescheduling timer: once stopped we must NOT re-arm, or a
  // simulated platform's run() (which drains the event queue to empty)
  // never returns.
  if (stop_.load(std::memory_order_acquire)) return;
  platform_.call_after(mgr_.config().supervise_interval,
                       [this, gate = gate_] {
                         std::lock_guard<std::mutex> lk(gate->mu);
                         if (!gate->alive) return;
                         tick();
                       });
}

void ShardSupervisor::tick() {
  if (stop_.load(std::memory_order_acquire)) return;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now_ns = platform_.now().ns;
  // Fleet-level quarantine cap: count BEFORE supervising, so the victim
  // decision sees the whole simultaneous-failure picture rather than
  // whatever this pass has already repaired.
  int quarantined = 0;
  for (int i = 0; i < mgr_.shards(); ++i) {
    if (!mgr_.shard(i).down() &&
        track_[static_cast<size_t>(i)].report.state ==
            ShardState::kQuarantined)
      ++quarantined;
  }
  const int cap_victim =
      quarantined > kQuarantineCap ? pick_cap_victim() : -1;
  int restores_this_tick = 0;
  for (int i = 0; i < mgr_.shards(); ++i)
    supervise(i, now_ns, cap_victim, restores_this_tick);
  reclaim_stale_handoffs(now_ns);
  schedule_next();
}

int ShardSupervisor::pick_cap_victim() const {
  int victim = -1;
  int victim_clients = 0;
  for (int i = 0; i < mgr_.shards(); ++i) {
    const Shard& s = mgr_.shard(i);
    if (s.down() ||
        track_[static_cast<size_t>(i)].report.state !=
            ShardState::kQuarantined)
      continue;
    const int clients = s.beat_clients();
    // Lowest priority = fewest clients at the last beat; tie -> highest
    // index, so the choice is deterministic across runs.
    if (victim < 0 || clients <= victim_clients) {
      victim = i;
      victim_clients = clients;
    }
  }
  return victim;
}

void ShardSupervisor::supervise(int i, int64_t now_ns, int cap_victim,
                                int& restores_this_tick) {
  Shard& s = mgr_.shard(i);
  Track& t = track_[static_cast<size_t>(i)];
  Report& r = t.report;
  if (s.down()) return;
  switch (r.state) {
    case ShardState::kHealthy: {
      bool escalate = false;
      const char* why = nullptr;
      if (s.crash_flagged() || s.beat_invariants() > 0) {
        escalate = true;
        why = s.crash_flagged() ? "crash-flag" : "invariant-violation";
      } else if (now_ns - s.beat_at_ns() >
                 mgr_.config().heartbeat_timeout.ns) {
        // Wedged: the beat timestamp refreshes both at frame end and from
        // every idle select() timeout (FrameHook::on_idle_wait), so a
        // healthy engine — even one starved of all traffic by a partition
        // — beats at least every select() timeout. A stale beat means the
        // loops themselves stopped (worker stuck inside a frame, barrier
        // hang), which is exactly what quarantine is for.
        escalate = true;
        why = "stale-heartbeat";
      }
      if (escalate) {
        s.request_stop();
        r.state = ShardState::kQuarantined;
        ++r.escalations;
        if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
          o->on_escalation(i, why);
      }
      break;
    }
    case ShardState::kQuarantined: {
      // Wait for every worker fiber to leave its loop before touching
      // the engine; re-check on the next tick otherwise.
      if (!s.quiesced()) break;
      const Config& cfg = mgr_.config();
      // Quarantine cap: this tick decided the fleet has too many shards
      // in repair at once and this one drew the short straw.
      if (i == cap_victim) {
        do_shed(i, ShedReason::kQuarantineCap);
        break;
      }
      if (s.restores() >= cfg.max_restores) {
        do_shed(i, ShedReason::kBudget);
        break;
      }
      // Crash-loop circuit breaker: prune rebuild timestamps that fell
      // out of the sliding window, then count what's left. A shard that
      // keeps crashing right back after every rebuild burns restore
      // budget AND fleet attention; cut it off early.
      auto& stamps = t.rebuild_at_ns;
      stamps.erase(std::remove_if(stamps.begin(), stamps.end(),
                                  [&](int64_t ts) {
                                    return now_ns - ts > kCrashLoopWindow.ns;
                                  }),
                   stamps.end());
      if (static_cast<int>(stamps.size()) >= cfg.crash_loop_max_rebuilds) {
        r.breaker_tripped = true;
        do_shed(i, ShedReason::kCrashLoop);
        break;
      }
      // Exponential backoff between rebuilds (the first restore is
      // immediate — next_restore_at_ns starts at 0).
      if (now_ns < t.next_restore_at_ns) {
        ++r.backoff_waits;
        break;
      }
      // Stagger: under simultaneous multi-shard failure, rebuild at most
      // kMaxConcurrentRestores shards per tick so recovery pauses don't
      // pile onto the same instant.
      if (restores_this_tick >= kMaxConcurrentRestores) {
        ++r.backoff_waits;
        break;
      }
      ++restores_this_tick;
      Shard::RestoreOutcome out = s.rebuild_and_restore();
      r.last_pause_ms = out.pause_ms;
      r.last_used_tail = out.used_tail;
      r.last_mode = out.mode;
      r.last_stats = out.stats;
      r.last_error = out.error;
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
        o->on_restore(i, out.ok, out.used_tail, out.stats.tail_frames,
                      out.pause_ms, restore_mode_name(out.mode));
      if (!out.ok) {
        do_shed(i, ShedReason::kRestoreFailed);
        break;
      }
      // Arm the breaker window and the next backoff: after the k-th
      // restore the (k+1)-th waits restore_backoff * 2^(k-1), clamped.
      stamps.push_back(now_ns);
      const int k = std::max(1, s.restores());
      int64_t backoff = cfg.restore_backoff.ns;
      for (int j = 1; j < k && backoff < cfg.restore_backoff_max.ns; ++j)
        backoff *= 2;
      backoff = std::min<int64_t>(backoff, cfg.restore_backoff_max.ns);
      t.next_restore_at_ns = now_ns + backoff;
      r.restores = s.restores();
      r.state = ShardState::kHealthy;
      break;
    }
    case ShardState::kShed:
      break;
  }
}

void ShardSupervisor::do_shed(int i, ShedReason why) {
  Shard& s = mgr_.shard(i);
  Report& r = track_[static_cast<size_t>(i)].report;
  std::vector<core::Server::SessionTransfer> transfers = s.shed();
  r.state = ShardState::kShed;
  r.shed_reason = why;
  for (core::Server::SessionTransfer& tr : transfers) {
    int target = -1;
    for (int k = 0; k < mgr_.shards(); ++k) {
      const int cand = (shed_cursor_ + k) % mgr_.shards();
      if (cand != i && !mgr_.shard(cand).down()) {
        target = cand;
        break;
      }
    }
    if (target < 0) break;  // no live shard left; sessions are lost
    shed_cursor_ = (target + 1) % mgr_.shards();
    // Shed transfers have no home to bounce back to: the source shard is
    // permanently down, so adopt-timeout reclaim must pick a live shard.
    tr.source_shard = -1;
    if (obs::FleetObs* o = mgr_.observer(); o != nullptr) {
      tr.flow_id = mgr_.next_flow_id();
      o->on_shed_handoff(i, target, tr.flow_id);
    }
    if (mgr_.post_handoff(target, std::move(tr))) ++r.shed_sessions;
  }
  if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
    o->on_shed(i, r.shed_sessions, shed_reason_name(why));
}

void ShardSupervisor::reclaim_stale_handoffs(int64_t now_ns) {
  const int64_t cutoff = now_ns - mgr_.config().adopt_timeout.ns;
  for (int i = 0; i < mgr_.shards(); ++i) {
    // A healthy shard drains its own mailbox every master window; only a
    // down or quarantined shard can sit on transfers long enough to hit
    // the adopt timeout.
    if (!mgr_.shard(i).down() &&
        track_[static_cast<size_t>(i)].report.state == ShardState::kHealthy)
      continue;
    std::vector<core::Server::SessionTransfer> stale =
        mgr_.mailbox(i).take_older_than(cutoff);
    for (core::Server::SessionTransfer& t : stale) {
      // Return to the source shard when it is still alive; otherwise any
      // live shard beats leaving the session stranded.
      int target = t.source_shard;
      if (target < 0 || target >= mgr_.shards() || target == i ||
          mgr_.shard(target).down()) {
        target = -1;
        for (int k = 1; k <= mgr_.shards(); ++k) {
          const int cand = (i + k) % mgr_.shards();
          if (cand != i && !mgr_.shard(cand).down()) {
            target = cand;
            break;
          }
        }
      }
      if (target < 0) continue;  // whole fleet down; session is lost
      mgr_.count_handoff_return();
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
        o->on_handoff_returned(i, target, t.flow_id, /*supervisor_ctx=*/true);
      mgr_.post_handoff(target, std::move(t));
    }
  }
}

}  // namespace qserv::shard
