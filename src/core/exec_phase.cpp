// E: move execution under region locks. The per-thread arena supplies
// every container this phase would otherwise allocate per move: the
// planned lock sets, the acquired region's leaf buffers, and the gather
// scratch execute_move threads through the sim layer.
#include "src/core/frame_pipeline.hpp"

#include <algorithm>

#include "src/sim/move.hpp"

namespace qserv::core {

void ExecPhase::run(int tid, ClientSlot& client, const net::MoveCmd& cmd,
                    ThreadStats& st, bool use_locks) {
  PipelineContext& ctx = pipe_.ctx_;
  sim::Entity* player = ctx.world.get(client.entity_id);
  if (player == nullptr) return;

  FrameArena& arena = pipe_.arena(tid);
  const bool lock = use_locks && ctx.cfg.lock_policy != LockPolicy::kNone;
  if (lock) {
    ctx.lock_manager.plan_request(ctx.cfg.lock_policy, *player, cmd,
                                  arena.lock_sets);
    ctx.lock_manager.acquire(arena.lock_sets, tid, st, arena.region);
  }
  // Serialization index, drawn *after* the region locks: two conflicting
  // moves' indexes order exactly as their executions did, so replay
  // applies them in the same order the live run did.
  const uint64_t order = pipe_.draw_order();

  // Execution time excludes any list-lock waiting incurred inside: the
  // ListLockContext's scopes nest in this one and charge the lock
  // components instead.
  LockManager::ListLockContext lists(ctx.lock_manager, st);
  vt::TimePoint t0;
  {
    PhaseScope exec(ctx.platform, st, Phase::kExec);
    t0 = exec.start();
    sim::execute_move(ctx.world, *player, cmd, t0, lock ? &lists : nullptr,
                      &ctx.global_events, order, &arena.move_scratch);
  }

  if (lock) ctx.lock_manager.release(arena.region);

  ctx.hooks.move_executed(tid, client.remote_port, player->id, order, t0,
                          cmd);

  client.pending_reply = true;
  ctx.registry.queue_reply(client);
  client.last_seq = std::max(client.last_seq, cmd.sequence);
  client.last_move_time_ns = cmd.client_time_ns;
  client.client_baseline_frame =
      std::max(client.client_baseline_frame, cmd.baseline_frame);
  ++client.moves_since_scan;
  ++st.requests_processed;
}

}  // namespace qserv::core
