// Rx: socket drain, netchan framing, and request dispatch. Moves run
// inline through the exec phase; connects and disconnects mutate only
// session state here — their world-entity effects are deferred to the
// maintenance window.
#include "src/core/frame_pipeline.hpp"

#include <algorithm>
#include <atomic>

#include "src/recovery/journal.hpp"
#include "src/resilience/governor.hpp"

namespace qserv::core {

int ReceivePhase::drain(int tid, ThreadStats& st, bool use_locks) {
  PipelineContext& ctx = pipe_.ctx_;
  net::Datagram d;
  int moves = 0;
  while (ctx.sockets[static_cast<size_t>(tid)]->try_recv(d)) {
    // Flood/oversize clamp: no legitimate client message approaches this
    // size, so drop before spending any parse work on it.
    if (d.payload.size() > resilience::kMaxPacketBytes) {
      ++st.packets_oversized;
      ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kOversized);
      continue;
    }
    // --- receive + parse ---
    ClientSlot* client = nullptr;
    bool cross_thread = false;
    net::NetChannel::Incoming info;
    net::ByteReader body(nullptr, 0);
    net::ClientMsgType type{};
    bool parsed = false;
    {
      PhaseScope receive(ctx.platform, st, Phase::kReceive);
      ctx.platform.compute(ctx.cfg.costs.recv_parse);
      client = ctx.registry.by_port(d.src_port);
      // Traffic for a slot owned by another thread. Only the owner thread
      // may touch the netchan — accept() here would race with the owner
      // draining the live port — so such datagrams are framed manually
      // (header strip, no channel state) and, with one exception, dropped.
      cross_thread = client != nullptr && client->owner_thread != tid;
      bool framed = false;
      if (client != nullptr && client->chan != nullptr && !cross_thread) {
        framed = client->chan->accept(d, info, body);
      } else if (d.payload.size() > 8) {
        // Unknown peer (or non-owner thread): strip the channel header
        // manually; only a connect is acceptable.
        body = net::ByteReader(d.payload.data() + 8, d.payload.size() - 8);
        framed = true;
      }
      parsed = framed && net::decode_client_type(body, type);
    }

    if (cross_thread && !(parsed && type == net::ClientMsgType::kConnect &&
                          client->awaiting_resume)) {
      // Stale-port traffic: the client was migrated (region reassignment
      // or stall recovery) but has not learned its new port yet. Refresh
      // liveness (the client must not be reaped mid-migration) and drop;
      // the forced snapshot in the reply phase carries the new port. The
      // one exception above: after a warm restart, a restored slot owned
      // by another thread reconnects through the base port — its slot is
      // dormant (no owner-thread traffic until resumed), so the connect
      // may safely proceed to handle_connect, which re-checks under the
      // clients lock.
      std::atomic_ref<int64_t>(client->last_heard_ns)
          .store(ctx.platform.now().ns, std::memory_order_relaxed);
      ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kStalePort);
      continue;
    }
    if (!parsed) {
      ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kMalformed);
      continue;
    }
    // Any well-formed traffic proves liveness, even stale duplicates.
    if (client != nullptr)
      std::atomic_ref<int64_t>(client->last_heard_ns)
          .store(ctx.platform.now().ns, std::memory_order_relaxed);
    if (client != nullptr && info.duplicate_or_old &&
        type == net::ClientMsgType::kMove) {
      ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kDuplicate);
      continue;  // stale or duplicated move
    }

    switch (type) {
      case net::ClientMsgType::kConnect: {
        net::ConnectMsg msg;
        if (decode(body, msg)) handle_connect(tid, d, msg, st);
        break;
      }
      case net::ClientMsgType::kMove: {
        if (client == nullptr) {
          // A remembered evicted port gets one explicit kEvicted answer
          // (it may have been evicted by a previous incarnation of this
          // server and never learned); anyone else is silence.
          if (ctx.registry.consume_remembered_eviction(d.src_port)) {
            ctx.platform.compute(ctx.cfg.costs.send_syscall);
            net::NetChannel reject(*ctx.sockets[static_cast<size_t>(tid)],
                                   d.src_port);
            reject.send(
                net::encode(net::RejectMsg{net::RejectReason::kEvicted}));
            ctx.hooks.drop(tid, d.src_port,
                           recovery::DropReason::kEvictedPort);
          } else {
            ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kUnknown);
          }
          break;
        }
        if (client->pending_spawn || client->pending_disconnect) {
          // No entity to move yet (or no longer): the spawn/removal is
          // waiting for the master window.
          ctx.hooks.drop(tid, d.src_port,
                         recovery::DropReason::kConnectPending);
          break;
        }
        // Backpressure: over-budget movers lose the excess moves here,
        // before any execution cost. Safe under the netchan resend model
        // — full state is retransmitted every snapshot.
        if (!client->bucket.try_take(ctx.platform.now().ns)) {
          ++st.moves_rate_limited;
          ctx.hooks.drop(tid, d.src_port,
                         recovery::DropReason::kRateLimited);
          break;
        }
        net::MoveCmd cmd;
        if (decode(body, cmd)) {
          if (ctx.governor->at_least(resilience::kCoalesceMoves) &&
              client->pending_reply) {
            // Governor rung 2: a client that already executed a move this
            // frame gets the rest of its backlog folded into the ack —
            // sequence and echo advance, execution cost is not paid.
            client->last_seq = std::max(client->last_seq, cmd.sequence);
            client->last_move_time_ns = cmd.client_time_ns;
            client->client_baseline_frame =
                std::max(client->client_baseline_frame, cmd.baseline_frame);
            ++st.moves_coalesced;
            ctx.hooks.drop(tid, d.src_port,
                           recovery::DropReason::kCoalesced);
          } else {
            pipe_.exec_.run(tid, *client, cmd, st, use_locks);
            ++moves;
          }
        }
        break;
      }
      case net::ClientMsgType::kDisconnect:
        if (client != nullptr) handle_disconnect(*client, st);
        break;
    }
  }
  return moves;
}

void ReceivePhase::handle_connect(int tid, const net::Datagram& d,
                                  const net::ConnectMsg& msg,
                                  ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  ClientRegistry& reg = ctx.registry;
  int slot = -1;
  bool busy = false;
  bool ack_now = false;  // slot already owns a live entity: ack directly
  // A resumed client's events start with this open frame's.
  const uint64_t resume_through = pipe_.frames_ - 1;
  {
    vt::LockGuard g(reg.mutex());
    const int existing = reg.index_of_port_locked(d.src_port);
    if (existing >= 0) {
      slot = existing;
      ClientSlot& c = reg.slot(slot);
      if (c.pending_spawn) {
        // Connect retry racing its own deferred spawn; the ack follows
        // the master window.
        ctx.hooks.drop(tid, d.src_port,
                       recovery::DropReason::kConnectPending);
        return;
      }
      if (c.awaiting_resume) {
        // Warm restart, same port: the peer reset its channel for this
        // connect, so resume with a fresh one (the restored sequencing
        // only serves peers that never noticed the restart).
        reg.resume_slot_locked(
            c, *ctx.sockets[static_cast<size_t>(c.owner_thread)],
            resume_through);
        ++reg.counters.resumed_clients;
        ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kResumed);
        ctx.hooks.client_resumed(d.src_port);
      } else {
        ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kReconnectDup);
      }
      ack_now = true;
    } else if (reg.restored()) {
      // Warm restart, fresh port: a checkpointed client that noticed the
      // outage reconnects from a new socket; re-adopt its slot by name.
      auto& slots = reg.slots();
      for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
        ClientSlot& c = slots[static_cast<size_t>(i)];
        if (c.in_use && c.awaiting_resume && c.name == msg.name) {
          reg.unbind_port_locked(c.remote_port);
          c.remote_port = d.src_port;
          reg.bind_port_locked(d.src_port, i);
          reg.resume_slot_locked(
              c, *ctx.sockets[static_cast<size_t>(c.owner_thread)],
              resume_through);
          ++reg.counters.resumed_clients;
          ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kResumed);
          ctx.hooks.client_resumed(d.src_port);
          slot = i;
          ack_now = true;
          break;
        }
      }
    }
    if (slot < 0 && !busy) {
      if ((ctx.cfg.resilience.admission_control &&
           ctx.governor->admission_overloaded()) ||
          ctx.governor->draining()) {
        // Admission control: the frame loop is already past its budget,
        // so serving the admitted population well beats admitting one
        // more player it cannot simulate. kServerBusy tells the client to
        // back off and retry, unlike the terminal kServerFull. A draining
        // server (hot restart in progress) answers the same way
        // unconditionally — "retry later" is literally true, since the
        // next generation will be serving these ports momentarily.
        busy = true;
        ++reg.counters.rejected_busy;
      } else {
        slot = reg.find_free_locked();
        if (slot < 0) ++reg.counters.rejected_connects;  // rejected below
      }
    }
    if (slot >= 0 && !reg.slot(slot).in_use) {
      // Fresh slot: record identity and defer the entity spawn (and the
      // ack) to the master's between-frames window, where creation is
      // single-threaded and takes a serialization index.
      reg.init_pending_slot_locked(slot, d.src_port, tid, msg.name);
      ++st.connects;
      ctx.hooks.drop(tid, d.src_port, recovery::DropReason::kConnectPending);
    }
  }

  if (busy || slot < 0) {
    // Explicit reject: kServerFull stops the client's connect-retry loop
    // outright (the seed silently dropped the datagram, Quake-style, so
    // a refused client hammered the port forever); kServerBusy invites a
    // backed-off retry once load recedes.
    ctx.platform.compute(ctx.cfg.costs.send_syscall);
    net::NetChannel reject(*ctx.sockets[static_cast<size_t>(tid)],
                           d.src_port);
    reject.send(net::encode(net::RejectMsg{
        busy ? net::RejectReason::kServerBusy
             : net::RejectReason::kServerFull}));
    ctx.hooks.drop(tid, d.src_port,
                   busy ? recovery::DropReason::kRejectedBusy
                        : recovery::DropReason::kRejectedFull);
    return;
  }
  if (!ack_now) return;  // deferred: the master window sends the ack

  ClientSlot& c = reg.slot(slot);
  const sim::Entity* player = ctx.world.get(c.entity_id);
  net::ConnectAck ack;
  ack.player_id = c.entity_id;
  ack.server_frame = static_cast<uint32_t>(pipe_.frames_);
  ack.assigned_port =
      static_cast<uint16_t>(ctx.cfg.base_port + c.owner_thread);
  if (player != nullptr) ack.spawn_origin = player->origin;
  ctx.platform.compute(ctx.cfg.costs.send_syscall);
  c.chan->send(net::encode(ack));
}

void ReceivePhase::handle_disconnect(ClientSlot& client, ThreadStats& st) {
  (void)st;
  PipelineContext& ctx = pipe_.ctx_;
  vt::LockGuard g(ctx.registry.mutex());
  if (!client.in_use) return;
  if (client.pending_spawn) {
    // The connect never reached the master window: no entity, no channel
    // — just free the slot.
    ctx.registry.unbind_port_locked(client.remote_port);
    ctx.registry.release_slot_locked(client);
    return;
  }
  // Entity removal is deferred to the master's between-frames window —
  // the same single-threaded point as every other lifecycle mutation —
  // so destruction never races another worker's gather and replays in
  // serialization order. The disconnect datagram itself woke a frame, so
  // that window runs before this drain's frame ends.
  ctx.registry.mark_disconnect_locked(client);
}

}  // namespace qserv::core
