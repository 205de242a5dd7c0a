// The master's single-threaded between-frames window: deferred client
// lifecycle, timeout reaping, the watchdog verdict with stall migration,
// the governor step with its eviction rung, the journal seal and periodic
// checkpoint, the cross-structure audit, the whole-frame metrics, and the
// hook dispatch points that let the shard layer and test probes ride the
// frame without touching Server internals.
#include "src/core/server.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "src/core/invariant_checker.hpp"
#include "src/core/lock_manager.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/resilience/watchdog.hpp"

namespace qserv::core {

void Server::run_master_window(int tid, vt::TimePoint frame_start,
                               int frame_moves, ThreadStats& st) {
  // Deferred lifecycle first: pending connects spawn their entities (and
  // get their acks) and pending disconnects remove theirs, each with a
  // serialization index, before any other master duty can observe a
  // half-created client.
  complete_pending_lifecycle();
  reap_timed_out_clients(st);
  run_resilience_duties(tid, frame_start, st);
  for (FrameHook* h : hooks_) h->on_master_window(tid, frame_start, st);
  const int level = governor_.level();
  // Seal after every mutation of the frame (including hook-driven
  // evictions) so the digest and journal cover the final state, and
  // before the frame-end hooks so they observe a sealed frame; the audit
  // runs after the seal so a violation dump carries this frame.
  seal_journal_frame();
  if (level < resilience::kShedDebugWork) run_invariant_check();
  if (frame_duration_ms_ != nullptr) {
    frame_duration_ms_->observe((platform_.now() - frame_start).millis());
    moves_per_frame_->observe(static_cast<double>(frame_moves));
  }
  for (FrameHook* h : hooks_) h->on_frame_end(frame_start, frame_moves, st);
  // Whole-frame span on the master's track (frame start to frame end);
  // phase spans nest inside it by time containment. The frame counter is
  // stable here: no new frame opens while this window runs.
  if (st.tracer != nullptr && st.tracer->enabled())
    st.tracer->record(st.trace_track, "frame", frame_start.ns,
                      platform_.now().ns - frame_start.ns,
                      static_cast<int64_t>(frames_));
}

void Server::run_resilience_duties(int tid, vt::TimePoint frame_start,
                                   ThreadStats& st) {
  // Watchdog adjudication: stale heartbeats become stalls, and a stalled
  // worker's clients migrate to live threads right here — master election
  // next frame simply proceeds without it.
  if (watchdog_ != nullptr) {
    const auto verdict = watchdog_->master_check(platform_.now(), tid);
    for (const int stalled : verdict.newly_stalled) {
      const int migrated = migrate_clients_from(stalled);
      if (st.tracer != nullptr && st.tracer->enabled())
        st.tracer->record(st.trace_track, "worker-stalled",
                          platform_.now().ns, 0, stalled * 1000 + migrated);
      dump_blackbox("stall", "worker " + std::to_string(stalled) +
                                 " adjudicated stalled; migrated " +
                                 std::to_string(migrated) + " clients");
    }
    for (const int back : verdict.recovered) {
      if (st.tracer != nullptr && st.tracer->enabled())
        st.tracer->record(st.trace_track, "worker-recovered",
                          platform_.now().ns, 0, back);
    }
  }
  // Governor: feed the finished frame, possibly stepping the ladder (and
  // serving its eviction rung, at most once per kEvictInterval).
  const int before = governor_.level();
  const int level = governor_.on_frame(platform_.now() - frame_start);
  if (level != before && st.tracer != nullptr && st.tracer->enabled())
    st.tracer->record(st.trace_track, "degrade-step", platform_.now().ns, 0,
                      level);
  if (level >= resilience::kEvictExpensive &&
      platform_.now() >= next_expensive_evict_) {
    evict_most_expensive(st);
    next_expensive_evict_ = platform_.now() + resilience::kEvictInterval;
  }
}

void Server::complete_pending_lifecycle() {
  vt::LockGuard g(registry_.mutex());
  registry_.take_pending_lifecycle_locked(pending_lifecycle_);
  if (pending_lifecycle_.empty()) return;
  const int64_t now_ns = platform_.now().ns;
  for (const int i : pending_lifecycle_) {
    ClientSlot& c = registry_.slot(i);
    if (!c.in_use) continue;
    if (c.pending_disconnect) {
      journal_lifecycle(recovery::RecordKind::kDisconnect, c.owner_thread,
                        c.remote_port, c.entity_id, now_ns);
      if (world_.get(c.entity_id) != nullptr)
        world_.remove_entity(c.entity_id);
      registry_.unbind_port_locked(c.remote_port);
      registry_.release_slot_locked(c);
      continue;
    }
    if (!c.pending_spawn) continue;
    // Deferred connect: spawn here, where entity creation is
    // single-threaded, then send the ack the drain phase withheld.
    sim::Entity& player = world_.spawn_player(c.name);
    const int owner = cfg_.assign_policy == AssignPolicy::kRegion
                          ? owner_for_region(player.origin)
                          : c.connect_tid;
    registry_.spawn_slot_locked(c, player.id, owner,
                                *sockets_[static_cast<size_t>(owner)],
                                frames_);
    journal_lifecycle(recovery::RecordKind::kConnectSpawn, owner,
                      c.remote_port, player.id, now_ns, c.name);
    net::ConnectAck ack;
    ack.player_id = player.id;
    ack.server_frame = static_cast<uint32_t>(frames_);
    ack.assigned_port = static_cast<uint16_t>(cfg_.base_port + owner);
    ack.spawn_origin = player.origin;
    platform_.compute(cfg_.costs.send_syscall);
    c.chan->send(net::encode(ack));
  }
}

void Server::evict_client_locked(ClientSlot& c, net::RejectReason reason,
                                 ThreadStats& st) {
  // Reject-first, teardown-second: the reason must leave on the client's
  // still-live channel before any state is dropped, so even an eviction
  // the peer never asked for arrives as an explicit verdict rather than
  // sudden silence (best effort; a crashed client never reads it, exactly
  // like QuakeWorld's timeout drop message).
  if (c.chan != nullptr) {
    platform_.compute(cfg_.costs.send_syscall);
    c.chan->send(net::encode(net::RejectMsg{reason}));
  }
  if (!c.pending_spawn) {
    journal_lifecycle(recovery::RecordKind::kEvict, c.owner_thread,
                      c.remote_port, c.entity_id, platform_.now().ns);
  }
  LockManager::ListLockContext lists(*lock_manager_, st);
  if (!c.pending_spawn && world_.get(c.entity_id) != nullptr)
    world_.remove_entity(c.entity_id, cfg_.threads > 1 ? &lists : nullptr);
  registry_.remember_evicted_locked(c.remote_port);
  registry_.unbind_port_locked(c.remote_port);
  registry_.release_slot_locked(c);
}

int Server::reap_timed_out_clients(ThreadStats& st) {
  if (cfg_.client_timeout.ns <= 0) return 0;
  const int64_t cutoff = platform_.now().ns - cfg_.client_timeout.ns;
  int evicted = 0;
  vt::LockGuard g(registry_.mutex());
  for (auto& c : registry_.slots()) {
    if (!c.in_use || c.pending_spawn ||
        std::atomic_ref<int64_t>(c.last_heard_ns)
                .load(std::memory_order_relaxed) > cutoff)
      continue;
    evict_client_locked(c, net::RejectReason::kEvicted, st);
    ++evicted;
    ++registry_.counters.evictions;
  }
  return evicted;
}

int Server::evict_most_expensive(ThreadStats& st) {
  vt::LockGuard g(registry_.mutex());
  ClientSlot* worst = nullptr;
  for (auto& c : registry_.slots()) {
    if (!c.in_use || c.pending_spawn || c.pending_disconnect) continue;
    if (worst == nullptr || c.moves_since_scan > worst->moves_since_scan)
      worst = &c;
  }
  int evicted = 0;
  // moves_since_scan == 0 means nobody cost anything since the last scan;
  // evicting an idle client would free no frame time.
  if (worst != nullptr && worst->moves_since_scan > 0) {
    evict_client_locked(*worst, net::RejectReason::kServerBusy, st);
    ++registry_.counters.governor_evictions;
    evicted = 1;
  }
  for (auto& c : registry_.slots()) c.moves_since_scan = 0;
  return evicted;
}

int Server::owner_for_region(const Vec3& origin) const {
  std::vector<int> leaves;
  world_.tree().leaves_for({origin, origin}, leaves);
  const int ord =
      leaves.empty() ? 0 : world_.tree().leaf_ordinal(leaves.front());
  return std::clamp(ord * cfg_.threads / world_.tree().leaf_count(), 0,
                    cfg_.threads - 1);
}

int Server::reassign_clients() {
  int moved = 0;
  vt::LockGuard g(registry_.mutex());
  for (auto& c : registry_.slots()) {
    if (!c.in_use || c.pending_spawn) continue;
    const sim::Entity* player = world_.get(c.entity_id);
    if (player == nullptr) continue;
    const int owner = owner_for_region(player->origin);
    if (owner == c.owner_thread) continue;
    registry_.migrate_slot_locked(c, owner,
                                  *sockets_[static_cast<size_t>(owner)]);
    ++moved;
    ++registry_.counters.reassignments;
  }
  return moved;
}

int Server::migrate_clients_from(int stalled_tid) {
  std::vector<int> live;
  for (int t = 0; t < cfg_.threads; ++t) {
    if (t == stalled_tid) continue;
    if (watchdog_ != nullptr && watchdog_->is_stalled(t)) continue;
    live.push_back(t);
  }
  if (live.empty()) return 0;
  int moved = 0;
  vt::LockGuard g(registry_.mutex());
  for (auto& c : registry_.slots()) {
    if (!c.in_use || c.pending_spawn || c.owner_thread != stalled_tid)
      continue;
    const int owner = live[static_cast<size_t>(moved) % live.size()];
    registry_.migrate_slot_locked(c, owner,
                                  *sockets_[static_cast<size_t>(owner)]);
    ++moved;
    ++registry_.counters.stall_reassignments;
  }
  return moved;
}

void Server::run_invariant_check() {
  if (invariants_ == nullptr) return;
  const int violations = invariants_->run();
  if (violations > 0 && cfg_.recovery.enabled) {
    std::string why = "invariant violations: " + std::to_string(violations);
    if (!invariants_->messages().empty())
      why += "\nlast: " + invariants_->messages().back();
    dump_blackbox("invariant", why);
  }
}

}  // namespace qserv::core
