// Rx: socket drain, netchan framing, and request dispatch. Moves run
// inline through the exec phase; connects and disconnects mutate only
// session state here — their world-entity effects are deferred to the
// maintenance window.
#include "src/core/server.hpp"

#include <algorithm>
#include <atomic>

#include "src/core/frame_arena.hpp"

namespace qserv::core {

int Server::drain_requests(int tid, ThreadStats& st) {
  net::Datagram& d = arenas_[static_cast<size_t>(tid)]->datagram;
  int moves = 0;
  while (sockets_[static_cast<size_t>(tid)]->try_recv(d)) {
    // Flood/oversize clamp: no legitimate client message approaches this
    // size, so drop before spending any parse work on it.
    if (d.payload.size() > resilience::kMaxPacketBytes) {
      ++st.packets_oversized;
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
      PhaseScope receive(platform_, st, Phase::kReceive);
      platform_.compute(cfg_.costs.recv_parse);
      client = registry_.by_port(d.src_port);
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
          .store(platform_.now().ns, std::memory_order_relaxed);
      continue;
    }
    if (!parsed) continue;
    // Any well-formed traffic proves liveness, even stale duplicates.
    if (client != nullptr)
      std::atomic_ref<int64_t>(client->last_heard_ns)
          .store(platform_.now().ns, std::memory_order_relaxed);
    if (client != nullptr && info.duplicate_or_old &&
        type == net::ClientMsgType::kMove) {
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
          if (registry_.consume_remembered_eviction(d.src_port)) {
            platform_.compute(cfg_.costs.send_syscall);
            net::NetChannel reject(*sockets_[static_cast<size_t>(tid)],
                                   d.src_port);
            reject.send(
                net::encode(net::RejectMsg{net::RejectReason::kEvicted}));
          }
          break;
        }
        if (client->pending_spawn || client->pending_disconnect) {
          // No entity to move yet (or no longer): the spawn/removal is
          // waiting for the master window.
          break;
        }
        // Backpressure: over-budget movers lose the excess moves here,
        // before any execution cost. Safe under the netchan resend model
        // — full state is retransmitted every snapshot.
        if (!client->bucket.try_take(platform_.now().ns)) {
          ++st.moves_rate_limited;
          break;
        }
        net::MoveCmd cmd;
        if (decode(body, cmd)) {
          if (governor_.at_least(resilience::kCoalesceMoves) &&
              client->pending_reply) {
            // Governor rung 2: a client that already executed a move this
            // frame gets the rest of its backlog folded into the ack —
            // sequence and echo advance, execution cost is not paid.
            client->last_seq = std::max(client->last_seq, cmd.sequence);
            client->last_move_time_ns = cmd.client_time_ns;
            client->client_baseline_frame =
                std::max(client->client_baseline_frame, cmd.baseline_frame);
            ++st.moves_coalesced;
          } else {
            execute_move(tid, *client, cmd, st);
            ++moves;
          }
        }
        break;
      }
      case net::ClientMsgType::kDisconnect:
        if (client != nullptr) handle_disconnect(*client);
        break;
    }
  }
  return moves;
}

void Server::handle_connect(int tid, const net::Datagram& d,
                            const net::ConnectMsg& msg, ThreadStats& st) {
  int slot = -1;
  bool busy = false;
  bool ack_now = false;  // slot already owns a live entity: ack directly
  // A resumed client's events start with this open frame's.
  const uint64_t resume_through = frames_ - 1;
  {
    vt::LockGuard g(registry_.mutex());
    const int existing = registry_.index_of_port_locked(d.src_port);
    if (existing >= 0) {
      slot = existing;
      ClientSlot& c = registry_.slot(slot);
      if (c.pending_spawn) {
        // Connect retry racing its own deferred spawn; the ack follows
        // the master window.
        return;
      }
      if (c.awaiting_resume) {
        // Warm restart, same port: the peer reset its channel for this
        // connect, so resume with a fresh one (the restored sequencing
        // only serves peers that never noticed the restart).
        registry_.resume_slot_locked(
            c, *sockets_[static_cast<size_t>(c.owner_thread)],
            resume_through);
        ++registry_.counters.resumed_clients;
      }
      ack_now = true;
    } else if (registry_.restored()) {
      // Warm restart, fresh port: a checkpointed client that noticed the
      // outage reconnects from a new socket; re-adopt its slot by name.
      auto& slots = registry_.slots();
      for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
        ClientSlot& c = slots[static_cast<size_t>(i)];
        if (c.in_use && c.awaiting_resume && c.name == msg.name) {
          registry_.unbind_port_locked(c.remote_port);
          c.remote_port = d.src_port;
          registry_.bind_port_locked(d.src_port, i);
          registry_.resume_slot_locked(
              c, *sockets_[static_cast<size_t>(c.owner_thread)],
              resume_through);
          ++registry_.counters.resumed_clients;
          slot = i;
          ack_now = true;
          break;
        }
      }
    }
    if (slot < 0 && !busy) {
      if ((cfg_.resilience.admission_control &&
           governor_.admission_overloaded()) ||
          draining()) {
        // Admission control: the frame loop is already past its budget,
        // so serving the admitted population well beats admitting one
        // more player it cannot simulate. kServerBusy tells the client to
        // back off and retry, unlike the terminal kServerFull. A draining
        // server (hot restart in progress) answers the same way
        // unconditionally — "retry later" is literally true, since the
        // next generation will be serving these ports momentarily.
        busy = true;
        ++registry_.counters.rejected_busy;
      } else {
        slot = registry_.find_free_locked();
        if (slot < 0) ++registry_.counters.rejected_connects;  // rejected below
      }
    }
    if (slot >= 0 && !registry_.slot(slot).in_use) {
      // Fresh slot: record identity and defer the entity spawn (and the
      // ack) to the master's between-frames window, where creation is
      // single-threaded and takes a serialization index.
      registry_.init_pending_slot_locked(slot, d.src_port, tid, msg.name);
      ++st.connects;
    }
  }

  if (busy || slot < 0) {
    // Explicit reject: kServerFull stops the client's connect-retry loop
    // outright (the seed silently dropped the datagram, Quake-style, so
    // a refused client hammered the port forever); kServerBusy invites a
    // backed-off retry once load recedes.
    platform_.compute(cfg_.costs.send_syscall);
    net::NetChannel reject(*sockets_[static_cast<size_t>(tid)], d.src_port);
    reject.send(net::encode(net::RejectMsg{
        busy ? net::RejectReason::kServerBusy
             : net::RejectReason::kServerFull}));
    return;
  }
  if (!ack_now) return;  // deferred: the master window sends the ack

  ClientSlot& c = registry_.slot(slot);
  const sim::Entity* player = world_.get(c.entity_id);
  net::ConnectAck ack;
  ack.player_id = c.entity_id;
  ack.server_frame = static_cast<uint32_t>(frames_);
  ack.assigned_port =
      static_cast<uint16_t>(cfg_.base_port + c.owner_thread);
  if (player != nullptr) ack.spawn_origin = player->origin;
  platform_.compute(cfg_.costs.send_syscall);
  c.chan->send(net::encode(ack));
}

void Server::handle_disconnect(ClientSlot& client) {
  vt::LockGuard g(registry_.mutex());
  if (!client.in_use) return;
  if (client.pending_spawn) {
    // The connect never reached the master window: no entity, no channel
    // — just free the slot.
    registry_.unbind_port_locked(client.remote_port);
    registry_.release_slot_locked(client);
    return;
  }
  // Entity removal is deferred to the master's between-frames window —
  // the same single-threaded point as every other lifecycle mutation —
  // so destruction never races another worker's gather and replays in
  // serialization order. The disconnect datagram itself woke a frame, so
  // that window runs before this drain's frame ends.
  registry_.mark_disconnect_locked(client);
}

}  // namespace qserv::core
