// E: move execution under region locks. The per-thread arena supplies
// every container this phase would otherwise allocate per move: the
// planned lock requests, the acquired region's leaf buffer, and the gather
// scratch sim::execute_move threads through the sim layer.
#include "src/core/server.hpp"

#include <algorithm>

#include "src/core/frame_arena.hpp"
#include "src/sim/move.hpp"

namespace qserv::core {

void Server::execute_move(int tid, ClientSlot& client,
                          const net::MoveCmd& cmd, ThreadStats& st) {
  sim::Entity* player = world_.get(client.entity_id);
  if (player == nullptr) return;

  FrameArena& arena = *arenas_[static_cast<size_t>(tid)];
  const bool lock = cfg_.lock_policy != LockPolicy::kNone;
  if (lock) {
    lock_manager_->plan_request(cfg_.lock_policy, *player, cmd,
                                arena.lock_requests);
    lock_manager_->acquire(arena.lock_requests, tid, st, arena.region);
  }
  // Serialization index, drawn *after* the region locks: two conflicting
  // moves' indexes order exactly as their executions did, so replay
  // applies them in the same order the live run did.
  const uint64_t order = draw_order();

  // Execution time excludes any list-lock waiting incurred inside: the
  // ListLockContext's scopes nest in this one and charge the lock
  // components instead.
  LockManager::ListLockContext lists(*lock_manager_, st);
  vt::TimePoint t0;
  {
    PhaseScope exec(platform_, st, Phase::kExec);
    t0 = exec.start();
    sim::execute_move(world_, *player, cmd, t0, lock ? &lists : nullptr,
                      &global_events_, order, &arena.move_scratch);
  }

  if (lock) lock_manager_->release(arena.region);

  journal_move(tid, client.remote_port, player->id, order, t0, cmd);

  client.pending_reply = true;
  registry_.queue_reply(client);
  client.last_seq = std::max(client.last_seq, cmd.sequence);
  client.last_move_time_ns = cmd.client_time_ns;
  client.client_baseline_frame =
      std::max(client.client_baseline_frame, cmd.baseline_frame);
  ++client.moves_since_scan;
  ++st.requests_processed;
}

}  // namespace qserv::core
