#include "src/shard/engine_hook.hpp"

#include <atomic>
#include <utility>
#include <vector>

#include "src/obs/fleet.hpp"
#include "src/shard/manager.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/world.hpp"

namespace qserv::shard {

ShardEngineHook::ShardEngineHook(ShardManager& mgr, int index,
                                 core::Server& server)
    : mgr_(mgr), index_(index), server_(server) {}

void ShardEngineHook::on_master_window(int /*tid*/,
                                       vt::TimePoint /*frame_start*/,
                                       core::ThreadStats& /*st*/) {
  adopt_inbound();
  migrate_outbound();
  rearm_redirects();
}

void ShardEngineHook::on_frame_end(vt::TimePoint /*frame_start*/,
                                   int /*moves*/, core::ThreadStats& /*st*/) {
  // Master context, workers at the barrier: plain engine reads are safe
  // here, and publishing them as the shard's heartbeat atomics is the
  // ONLY way the supervisor may observe this engine from its own thread.
  mgr_.shard(index_).publish_heartbeat(server_.platform().now().ns,
                                       server_.connected_clients(),
                                       server_.invariant_violations());
}

void ShardEngineHook::on_idle_wait(int /*tid*/) {
  // Any worker may land here concurrently; the beat is a single atomic
  // timestamp store. Without this, an engine starved of traffic (e.g. a
  // partition severing all of its clients) would stop publishing frame-end
  // beats and read as wedged to the supervisor.
  mgr_.shard(index_).publish_idle_beat(server_.platform().now().ns);
}

void ShardEngineHook::adopt_inbound() {
  HandoffMailbox& box = mgr_.mailbox(index_);
  if (retry_.empty() && box.empty()) return;
  std::vector<core::Server::SessionTransfer> incoming;
  incoming.swap(retry_);
  for (core::Server::SessionTransfer& t : box.drain())
    incoming.push_back(std::move(t));
  for (core::Server::SessionTransfer& t : incoming) {
    if (server_.adopt_session(t)) {
      if (t.flow_id != 0) {
        if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
          o->on_handoff_in(index_, t.flow_id);
      }
      // Arm the redirect with the POST-adopt clock: adopt_session stamps
      // the slot's last_heard_ns with now(), which under virtual time may
      // already be past this window's start, and rearm_redirects drops
      // entries once heard > armed-at.
      pending_redirects_.emplace_back(t.remote_port,
                                      server_.platform().now().ns);
    } else if (++t.adopt_retries <= kHandoffRetryBudget ||
               t.source_shard < 0 || t.source_shard == index_ ||
               t.source_shard >= mgr_.shards() ||
               mgr_.shard(t.source_shard).down()) {
      // Registry momentarily full (or port briefly still bound): hold
      // the session and retry next window rather than lose the client.
      retry_.push_back(std::move(t));
    } else {
      // Retry budget exhausted and the source shard is still alive:
      // bounce the session back where it came from instead of stranding
      // it in this shard's retry queue forever.
      const int back = t.source_shard;
      t.adopt_retries = 0;
      t.source_shard = index_;
      mgr_.count_handoff_return();
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
        o->on_handoff_returned(index_, back, t.flow_id,
                               /*supervisor_ctx=*/false);
      mgr_.post_handoff(back, std::move(t));
    }
  }
}

void ShardEngineHook::migrate_outbound() {
  // Two phases to respect the non-recursive registry mutex: collect
  // (port, entity) candidates under the lock, then extract_session —
  // which re-locks internally — per crossing session.
  std::vector<std::pair<uint16_t, uint32_t>> candidates;
  {
    core::ClientRegistry& reg = server_.registry();
    vt::LockGuard g(reg.mutex());
    for (const core::ClientSlot& cl : reg.slots()) {
      if (!cl.in_use || cl.pending_spawn || cl.pending_disconnect ||
          cl.awaiting_resume)
        continue;
      candidates.emplace_back(cl.remote_port, cl.entity_id);
    }
  }
  const ShardRouter& router = mgr_.router();
  for (const auto& [port, entity_id] : candidates) {
    const sim::Entity* e = server_.world().get(entity_id);
    if (e == nullptr) continue;
    const int target = router.home_for(index_, e->origin);
    if (target == index_) continue;
    // The owner of that slab is down (shed): keep serving the session
    // here rather than bouncing it around the fleet.
    if (mgr_.shard(target).down()) continue;
    core::Server::SessionTransfer t;
    if (server_.extract_session(port, t)) {
      t.source_shard = index_;  // return address for containment paths
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr) {
        t.flow_id = mgr_.next_flow_id();
        o->on_handoff_out(index_, target, t.flow_id);
      }
      mgr_.post_handoff(target, std::move(t));
    }
  }
}

void ShardEngineHook::rearm_redirects() {
  if (pending_redirects_.empty()) return;
  core::ClientRegistry& reg = server_.registry();
  vt::LockGuard g(reg.mutex());
  std::erase_if(pending_redirects_, [&](const std::pair<uint16_t, int64_t>&
                                            pr) {
    const int idx = reg.index_of_port_locked(pr.first);
    if (idx < 0) return true;  // migrated again or evicted; stop re-arming
    core::ClientSlot& cl = reg.slot(idx);
    if (!cl.in_use) return true;
    const int64_t heard =
        std::atomic_ref<int64_t>(cl.last_heard_ns).load(
            std::memory_order_relaxed);
    if (heard > pr.second) return true;  // peer now addresses this engine
    // Teaching snapshot may have been lost: keep re-arming the one-shot
    // port notification (with a queued reply) until the peer shows up.
    cl.notify_port = true;
    cl.pending_reply = true;
    reg.queue_reply(cl);
    return false;
  });
}

}  // namespace qserv::shard
