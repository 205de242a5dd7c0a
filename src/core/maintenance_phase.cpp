// The master's single-threaded between-frames window: deferred client
// lifecycle, timeout reaping, stall migration, governor eviction, the
// cross-structure audit, and the hook dispatch points that let recovery /
// resilience / observability ride the frame without touching the engine.
#include "src/core/frame_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "src/core/invariant_checker.hpp"
#include "src/obs/trace.hpp"
#include "src/resilience/governor.hpp"
#include "src/resilience/watchdog.hpp"

namespace qserv::core {

void MaintenancePhase::run_master_window(int tid, vt::TimePoint frame_start,
                                         int frame_moves, ThreadStats& st,
                                         bool harvest_locks) {
  PipelineContext& ctx = pipe_.ctx_;
  if (harvest_locks) ctx.lock_manager.frame_harvest(ctx.frame_lock_stats);
  // Deferred lifecycle first: pending connects spawn their entities (and
  // get their acks) and pending disconnects remove theirs, each with a
  // serialization index, before any other master duty can observe a
  // half-created client.
  complete_pending_lifecycle(st);
  reap_timed_out_clients(st);
  // Subsystem master duties (resilience: watchdog adjudication with stall
  // migration, then the governor step — possibly serving its eviction
  // rung through the engine facade).
  ctx.hooks.master_window(tid, frame_start, st);
  const int level = ctx.governor->level();
  // Seal after every mutation of the frame (including hook-driven
  // evictions) so the recovery hook's digest and journal cover the final
  // state; the audit runs after the seal so a violation dump carries this
  // frame.
  ctx.hooks.frame_sealed();
  if (level < resilience::kShedDebugWork) run_invariant_check();
  ctx.hooks.frame_end(frame_start, frame_moves, st);
  // Whole-frame span on the master's track (frame start to frame end);
  // phase spans nest inside it by time containment. The frame counter is
  // stable here: no new frame opens while this window runs.
  if (st.tracer != nullptr && st.tracer->enabled())
    st.tracer->record(st.trace_track, "frame", frame_start.ns,
                      ctx.platform.now().ns - frame_start.ns,
                      static_cast<int64_t>(pipe_.frames_));
}

void MaintenancePhase::complete_pending_lifecycle(ThreadStats& st) {
  (void)st;
  PipelineContext& ctx = pipe_.ctx_;
  ClientRegistry& reg = ctx.registry;
  vt::LockGuard g(reg.mutex());
  std::vector<int>& pending = pipe_.pending_lifecycle_;
  reg.take_pending_lifecycle_locked(pending);
  if (pending.empty()) return;
  const int64_t now_ns = ctx.platform.now().ns;
  for (const int i : pending) {
    ClientSlot& c = reg.slot(i);
    if (!c.in_use) continue;
    if (c.pending_disconnect) {
      ctx.hooks.client_disconnected(c.owner_thread, c.remote_port,
                                    c.entity_id, now_ns);
      if (ctx.world.get(c.entity_id) != nullptr)
        ctx.world.remove_entity(c.entity_id);
      reg.unbind_port_locked(c.remote_port);
      reg.release_slot_locked(c);
      continue;
    }
    if (!c.pending_spawn) continue;
    // Deferred connect: spawn here, where entity creation is
    // single-threaded, then send the ack the drain phase withheld.
    sim::Entity& player = ctx.world.spawn_player(c.name);
    const int owner = ctx.cfg.assign_policy == AssignPolicy::kRegion
                          ? owner_for_region(player.origin)
                          : c.connect_tid;
    reg.spawn_slot_locked(c, player.id, owner,
                          *ctx.sockets[static_cast<size_t>(owner)],
                          pipe_.frames_);
    ctx.hooks.client_spawned(owner, c.remote_port, player.id, c.name,
                             now_ns);
    net::ConnectAck ack;
    ack.player_id = player.id;
    ack.server_frame = static_cast<uint32_t>(pipe_.frames_);
    ack.assigned_port = static_cast<uint16_t>(ctx.cfg.base_port + owner);
    ack.spawn_origin = player.origin;
    ctx.platform.compute(ctx.cfg.costs.send_syscall);
    c.chan->send(net::encode(ack));
  }
}

void MaintenancePhase::evict_client_locked(ClientSlot& c,
                                           net::RejectReason reason,
                                           ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  // Reject-first, teardown-second: the reason must leave on the client's
  // still-live channel before any state is dropped, so even an eviction
  // the peer never asked for arrives as an explicit verdict rather than
  // sudden silence (best effort; a crashed client never reads it, exactly
  // like QuakeWorld's timeout drop message).
  if (c.chan != nullptr) {
    ctx.platform.compute(ctx.cfg.costs.send_syscall);
    c.chan->send(net::encode(net::RejectMsg{reason}));
  }
  if (!c.pending_spawn)
    ctx.hooks.client_evicted(c.owner_thread, c.remote_port, c.entity_id);
  LockManager::ListLockContext lists(ctx.lock_manager, st);
  if (!c.pending_spawn && ctx.world.get(c.entity_id) != nullptr)
    ctx.world.remove_entity(c.entity_id,
                            ctx.cfg.threads > 1 ? &lists : nullptr);
  ctx.registry.remember_evicted_locked(c.remote_port);
  ctx.registry.unbind_port_locked(c.remote_port);
  ctx.registry.release_slot_locked(c);
}

int MaintenancePhase::reap_timed_out_clients(ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  if (ctx.cfg.client_timeout.ns <= 0) return 0;
  const int64_t cutoff = ctx.platform.now().ns - ctx.cfg.client_timeout.ns;
  int evicted = 0;
  vt::LockGuard g(ctx.registry.mutex());
  for (auto& c : ctx.registry.slots()) {
    if (!c.in_use || c.pending_spawn ||
        std::atomic_ref<int64_t>(c.last_heard_ns)
                .load(std::memory_order_relaxed) > cutoff)
      continue;
    evict_client_locked(c, net::RejectReason::kEvicted, st);
    ++evicted;
    ++ctx.registry.counters.evictions;
  }
  return evicted;
}

int MaintenancePhase::evict_most_expensive(ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  vt::LockGuard g(ctx.registry.mutex());
  ClientSlot* worst = nullptr;
  for (auto& c : ctx.registry.slots()) {
    if (!c.in_use || c.pending_spawn || c.pending_disconnect) continue;
    if (worst == nullptr || c.moves_since_scan > worst->moves_since_scan)
      worst = &c;
  }
  int evicted = 0;
  // moves_since_scan == 0 means nobody cost anything since the last scan;
  // evicting an idle client would free no frame time.
  if (worst != nullptr && worst->moves_since_scan > 0) {
    evict_client_locked(*worst, net::RejectReason::kServerBusy, st);
    ++ctx.registry.counters.governor_evictions;
    evicted = 1;
  }
  for (auto& c : ctx.registry.slots()) c.moves_since_scan = 0;
  return evicted;
}

int MaintenancePhase::owner_for_region(const Vec3& origin) const {
  PipelineContext& ctx = pipe_.ctx_;
  std::vector<int> leaves;
  ctx.world.tree().leaves_for({origin, origin}, leaves);
  const int ord =
      leaves.empty() ? 0 : ctx.world.tree().leaf_ordinal(leaves.front());
  return std::clamp(ord * ctx.cfg.threads / ctx.world.tree().leaf_count(), 0,
                    ctx.cfg.threads - 1);
}

int MaintenancePhase::reassign_clients() {
  PipelineContext& ctx = pipe_.ctx_;
  int moved = 0;
  vt::LockGuard g(ctx.registry.mutex());
  for (auto& c : ctx.registry.slots()) {
    if (!c.in_use || c.pending_spawn) continue;
    const sim::Entity* player = ctx.world.get(c.entity_id);
    if (player == nullptr) continue;
    const int owner = owner_for_region(player->origin);
    if (owner == c.owner_thread) continue;
    const int from = c.owner_thread;
    ctx.registry.migrate_slot_locked(
        c, owner, *ctx.sockets[static_cast<size_t>(owner)]);
    ctx.hooks.client_migrated(from, owner, c.remote_port);
    ++moved;
    ++ctx.registry.counters.reassignments;
  }
  return moved;
}

int MaintenancePhase::reassign_clients_from(int stalled_tid,
                                            ThreadStats& st) {
  (void)st;
  PipelineContext& ctx = pipe_.ctx_;
  std::vector<int> live;
  for (int t = 0; t < ctx.cfg.threads; ++t) {
    if (t == stalled_tid) continue;
    if (ctx.watchdog != nullptr && ctx.watchdog->is_stalled(t)) continue;
    live.push_back(t);
  }
  if (live.empty()) return 0;
  int moved = 0;
  vt::LockGuard g(ctx.registry.mutex());
  for (auto& c : ctx.registry.slots()) {
    if (!c.in_use || c.pending_spawn || c.owner_thread != stalled_tid)
      continue;
    const int owner = live[static_cast<size_t>(moved) % live.size()];
    ctx.registry.migrate_slot_locked(
        c, owner, *ctx.sockets[static_cast<size_t>(owner)]);
    ctx.hooks.client_migrated(stalled_tid, owner, c.remote_port);
    ++moved;
    ++ctx.registry.counters.stall_reassignments;
  }
  return moved;
}

void MaintenancePhase::run_invariant_check() {
  PipelineContext& ctx = pipe_.ctx_;
  if (ctx.invariants == nullptr) return;
  const int violations = ctx.invariants->run();
  if (violations > 0 && ctx.cfg.recovery.enabled) {
    std::string why = "invariant violations: " + std::to_string(violations);
    if (!ctx.invariants->messages().empty())
      why += "\nlast: " + ctx.invariants->messages().back();
    ctx.engine->dump_blackbox("invariant", why);
  }
}

}  // namespace qserv::core
