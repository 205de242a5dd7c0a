// T/Tx: snapshot assembly and delivery (DESIGN.md §15). One path: the
// interest sweep runs over the world's SoA entity view, and each reply is
// encoded from the view's canonical records into this thread's wire
// buffer and sent from it in place. The per-thread arena supplies every
// container, so a steady-state reply allocates only the client's history
// entry.
#include "src/core/frame_pipeline.hpp"

#include "src/obs/trace.hpp"
#include "src/resilience/governor.hpp"

namespace qserv::core {

void ReplyPhase::prepare(ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  // Replied clients copy the sealed block into their snapshot; the
  // buffers of the others take it by reference.
  pipe_.sealed_events_ = ctx.global_events.seal_frame();
  const vt::TimePoint t0 = ctx.platform.now();
  ctx.world.refresh_view();
  st.breakdown.reply += ctx.platform.now() - t0;
}

void ReplyPhase::run(int tid, ThreadStats& st, bool include_unowned,
                     uint64_t participants_mask) {
  PipelineContext& ctx = pipe_.ctx_;
  const sim::CostModel& costs = ctx.cfg.costs;
  FrameArena& arena = pipe_.arena(tid);
  obs::TraceScope span(st.tracer, st.trace_track, "reply");
  const vt::TimePoint t0 = ctx.platform.now();
  const bool thin_far = ctx.governor->at_least(resilience::kThinFarEntities);
  const std::vector<net::GameEvent>& frame_events = *pipe_.sealed_events_;
  const auto frame = static_cast<uint32_t>(pipe_.frames_);
  static_assert(net::NetChannel::kHeaderReserve == sizeof(uint64_t));

  for (auto& c : ctx.registry.slots()) {
    if (!c.in_use || c.pending_spawn || c.pending_disconnect) continue;
    const bool owned = c.owner_thread == tid;
    const bool orphaned =
        include_unowned && !owned &&
        ((participants_mask >> c.owner_thread) & 1ull) == 0;
    if (!owned && !orphaned) continue;

    // notify_port without pending_reply forces a snapshot anyway: a
    // client migrated off a stalled worker is still sending moves to the
    // dead port, so waiting for a request it can deliver would deadlock —
    // it must be *told* the new port to have one.
    if (owned && (c.pending_reply || c.notify_port)) {
      const sim::Entity* player = ctx.world.get(c.entity_id);
      if (player == nullptr) continue;
      // Buffered events from frames this client missed, then this
      // frame's events.
      std::vector<net::GameEvent>& events = arena.events;
      events.clear();
      c.buffer->drain_into(events);
      events.insert(events.end(), frame_events.begin(), frame_events.end());
      net::Snapshot& snap = arena.snap;
      sim::sweep_snapshot(ctx.world, *player, frame, c.last_seq,
                          c.last_move_time_ns, events, snap, arena.rows,
                          thin_far);
      if (c.notify_port) {
        snap.assigned_port =
            static_cast<uint16_t>(ctx.cfg.base_port + c.owner_thread);
        c.notify_port = false;
      }

      // Find the delta baseline (newest snapshot the client reports
      // having reconstructed); full snapshot if no longer in history.
      const ClientSlot::SentSnapshot* baseline = nullptr;
      if (ctx.cfg.delta_snapshots && c.client_baseline_frame != 0) {
        for (auto it = c.history.rbegin(); it != c.history.rend(); ++it) {
          if (it->server_frame == c.client_baseline_frame) {
            baseline = &*it;
            break;
          }
        }
      }

      ctx.platform.compute(costs.reply_base + costs.send_syscall);
      net::ByteWriter& w = arena.wire;
      w.clear();
      w.u64(0);  // headroom for the channel header send_in_place stamps
      if (baseline != nullptr) {
        sim::write_delta_snapshot(snap, ctx.world.view(), arena.rows,
                                  baseline->entities, baseline->server_frame,
                                  arena.enc_scratch, w);
      } else {
        sim::write_full_snapshot(snap, ctx.world.view(), arena.rows, w);
      }
      if (ctx.cfg.delta_snapshots) {
        c.history.push_back({snap.server_frame, snap.entities});
        while (static_cast<int>(c.history.size()) > ctx.cfg.snapshot_history)
          c.history.pop_front();
      }
      c.chan->send_in_place(w.mutable_data(),
                            w.size() - net::NetChannel::kHeaderReserve);
      c.pending_reply = false;
      ++st.replies_sent;
    } else {
      // No request this frame: update the client's message buffer from
      // the global state buffer anyway (§3.3 — every client, every
      // frame; per-buffer lock inside).
      c.buffer->append_block(pipe_.sealed_events_);
      ctx.platform.compute(costs.per_buffer_update +
                           costs.per_event *
                               static_cast<int64_t>(frame_events.size()));
    }
  }
  st.breakdown.reply += ctx.platform.now() - t0;
}

}  // namespace qserv::core
