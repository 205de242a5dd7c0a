// T/Tx: snapshot assembly and delivery (DESIGN.md §15). One path: each
// thread answers the clients in its reply queue, the interest sweep runs
// over the world's SoA entity view, and each reply is encoded from the
// view's canonical records into this thread's wire buffer and sent from
// it in place. A reply's events are one span copy of the event log,
// encoded at the flip, after the frame the client's events are complete
// through. Nothing here walks the client slots or the entity storage; the
// per-thread arena supplies every container, so a steady-state reply
// allocates only the client's history entry.
#include "src/core/server.hpp"

#include <algorithm>

#include "src/core/frame_arena.hpp"

namespace qserv::core {

// Sent snapshots each client keeps as delta baselines: a client whose
// acknowledged frame has fallen further behind gets a full snapshot.
constexpr size_t kSnapshotHistory = 8;

void Server::prepare_replies(ThreadStats& st) {
  frame_events_ = global_events_.seal_frame(frames_);
  if (global_events_.trim_due())
    global_events_.trim_through(registry_.events_complete_through(frames_));
  registry_.flush_deferred_replies();
  PhaseScope reply(platform_, st, Phase::kReply);
  world_.refresh_view();
}

void Server::send_replies(int tid, ThreadStats& st, uint64_t charged_owners) {
  const sim::CostModel& costs = cfg_.costs;
  FrameArena& arena = *arenas_[static_cast<size_t>(tid)];
  PhaseScope reply(platform_, st, Phase::kReply);
  const bool thin_far = governor_.at_least(resilience::kThinFarEntities);
  const auto frame = static_cast<uint32_t>(frames_);
  static_assert(net::NetChannel::kHeaderReserve == sizeof(uint64_t));

  // §3.3: every client this thread covers (`charged_owners`) has its
  // message buffer updated from the global state buffer each frame, in
  // slot order with the replies. The event log makes that free on the
  // host; the paper's cost stays modelled, charged for each run of
  // covered clients between two replies as one lump, so the virtual
  // charge stream equals the per-client loop's.
  const vt::Duration per_update =
      costs.per_buffer_update +
      costs.per_event * static_cast<int64_t>(frame_events_);
  int replied = 0, updated = 0;
  const auto update_buffers_below = [&](int slot) {
    const int n = registry_.active_below(charged_owners, slot) - replied -
                  updated;
    if (n > 0) platform_.compute(per_update * static_cast<int64_t>(n));
    updated += std::max(n, 0);
  };

  std::vector<int>& queue = registry_.reply_queue(tid);
  std::sort(queue.begin(), queue.end());  // answer in slot order
  for (const int slot : queue) {
    ClientSlot& c = registry_.slot(slot);
    if (c.reply_queue != tid) continue;  // stale or duplicate entry
    c.reply_queue = -1;
    if (c.pending_disconnect) continue;
    // A queued client has pending_reply or notify_port set. notify_port
    // alone still forces a snapshot: a client migrated off a stalled
    // worker is still sending moves to the dead port, so waiting for a
    // request it can deliver would deadlock — it must be *told* the new
    // port to have one.
    const sim::Entity* player = world_.get(c.entity_id);
    if (player == nullptr) continue;
    update_buffers_below(slot);
    // Every logged frame's events since the client's last reply (or
    // join), this frame's included.
    const net::EventSpan events =
        global_events_.events_after(c.events_through);
    c.events_through = frames_;
    net::Snapshot& snap = arena.snap;
    sim::sweep_snapshot(world_, *player, frame, c.last_seq,
                        c.last_move_time_ns, events.count, snap, arena.rows,
                        thin_far);
    if (c.notify_port) {
      snap.assigned_port =
          static_cast<uint16_t>(cfg_.base_port + c.owner_thread);
      c.notify_port = false;
    }

    // Find the delta baseline (newest snapshot the client reports
    // having reconstructed); full snapshot if no longer in history.
    const ClientSlot::SentSnapshot* baseline = nullptr;
    if (cfg_.delta_snapshots && c.client_baseline_frame != 0) {
      for (auto it = c.history.rbegin(); it != c.history.rend(); ++it) {
        if (it->server_frame == c.client_baseline_frame) {
          baseline = &*it;
          break;
        }
      }
    }

    platform_.compute(costs.reply_base + costs.send_syscall);
    net::ByteWriter& w = arena.wire;
    w.clear();
    w.u64(0);  // headroom for the channel header send_in_place stamps
    if (baseline != nullptr) {
      sim::write_delta_snapshot(snap, world_.view(), arena.rows,
                                baseline->entities, baseline->server_frame,
                                events, arena.enc_scratch, w);
    } else {
      sim::write_full_snapshot(snap, world_.view(), arena.rows, events, w);
    }
    if (cfg_.delta_snapshots) {
      c.history.push_back({snap.server_frame, snap.entities});
      while (c.history.size() > kSnapshotHistory) c.history.pop_front();
    }
    c.chan->send_in_place(w.mutable_data(),
                          w.size() - net::NetChannel::kHeaderReserve);
    c.pending_reply = false;
    ++st.replies_sent;
    ++replied;
  }
  queue.clear();
  update_buffers_below(static_cast<int>(registry_.slots().size()));
}

}  // namespace qserv::core
