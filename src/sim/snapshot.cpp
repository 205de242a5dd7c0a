#include "src/sim/snapshot.hpp"

#include <algorithm>

#include "src/sim/combat.hpp"

namespace qserv::sim {

SnapshotStats sweep_snapshot(const World& world, const Entity& player,
                             uint32_t server_frame, uint32_t ack_sequence,
                             int64_t client_time_echo_ns,
                             size_t event_count, net::Snapshot& out,
                             std::vector<uint32_t>& rows, bool thin_far) {
  SnapshotStats stats;
  // Field-wise reset instead of `out = net::Snapshot{}`: a snapshot built
  // into a reused buffer keeps its entity capacity across frames.
  out.assigned_port = 0;
  out.baseline_frame = 0;
  out.entities.clear();
  out.server_frame = server_frame;
  out.ack_sequence = ack_sequence;
  out.client_time_echo_ns = client_time_echo_ns;
  out.origin = player.origin;
  out.velocity = player.velocity;
  out.health = static_cast<int16_t>(player.health);
  out.armor = static_cast<int16_t>(player.armor);
  out.frags = static_cast<int16_t>(player.frags);
  rows.clear();

  const FrameView& view = world.view();
  const CostModel& costs = world.costs();
  const Vec3 eye = eye_pos(player);
  const spatial::PvsData& pvs = world.map().pvs;
  const bool use_pvs = !pvs.empty();
  const int my_cluster = use_pvs ? player.cluster : -1;
  constexpr float kRange2 = kInterestRange * kInterestRange;
  constexpr float kThinRange = kInterestRange * 0.5f;
  constexpr float kThin2 = kThinRange * kThinRange;
  constexpr float kAudible2 = kAlwaysAudibleRange * kAlwaysAudibleRange;

  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    if (view.ids[i] == player.id) continue;
    ++stats.interest_checks;
    const Vec3 origin{view.x[i], view.y[i], view.z[i]};
    const float d2 = dist_sq(origin, player.origin);
    if (d2 > kRange2) continue;
    // Governor rung 1: far entities update at half rate under overload,
    // skipping the expensive visibility work below entirely.
    if (thin_far && d2 > kThin2 && ((view.ids[i] + server_frame) & 1u) != 0)
      continue;

    if (view.is_player[i] != 0 && d2 > kAudible2) {
      if (use_pvs) {
        // Quake-style: a precomputed PVS lookup instead of a ray trace.
        // Maps with higher visibility pass more entities and so cost
        // more reply time.
        world.charge(costs.per_pvs_check);
        if (!pvs.can_see(my_cluster, view.cluster[i])) continue;
      } else {
        // No PVS on this map: fall back to a line-of-sight trace.
        const auto tr =
            world.collision().trace_line(eye, origin + Vec3{0, 0, 22});
        ++stats.los_traces;
        stats.los_brushes += tr.brushes_tested;
        world.charge(costs.per_los_trace_brush * tr.brushes_tested);
        if (tr.hit()) continue;
      }
    }

    net::EntityUpdate u;
    u.id = view.ids[i];
    u.type = view.type[i];
    u.origin = origin;
    u.yaw_deg = view.yaw[i];
    u.state = view.state[i];
    out.entities.push_back(u);
    rows.push_back(static_cast<uint32_t>(i));
    ++stats.visible_entities;
  }

  world.charge(costs.per_interest_check * stats.interest_checks +
               costs.per_visible_entity * stats.visible_entities +
               costs.per_event * static_cast<int64_t>(event_count));
  return stats;
}

namespace {

void write_events(net::EventSpan events, net::ByteWriter& w) {
  w.u16(static_cast<uint16_t>(events.count));
  w.bytes(events.data, events.bytes());
}

}  // namespace

void write_full_snapshot(const net::Snapshot& snap, const FrameView& view,
                         const std::vector<uint32_t>& rows,
                         net::EventSpan events, net::ByteWriter& w) {
  w.u8(static_cast<uint8_t>(net::ServerMsgType::kSnapshot));
  w.u32(snap.server_frame);
  w.u32(snap.ack_sequence);
  w.i64(snap.client_time_echo_ns);
  w.u16(snap.assigned_port);
  w.vec3(snap.origin);
  w.vec3(snap.velocity);
  w.u16(static_cast<uint16_t>(snap.health));
  w.u16(static_cast<uint16_t>(snap.armor));
  w.u16(static_cast<uint16_t>(snap.frags));
  w.u16(static_cast<uint16_t>(rows.size()));
  for (const uint32_t row : rows)
    w.bytes(view.record(row), FrameView::kRecordBytes);
  write_events(events, w);
}

int write_delta_snapshot(const net::Snapshot& snap, const FrameView& view,
                         const std::vector<uint32_t>& rows,
                         const std::vector<net::EntityUpdate>& baseline,
                         uint32_t baseline_frame, net::EventSpan events,
                         EncodeScratch& scratch, net::ByteWriter& w) {
  w.u8(static_cast<uint8_t>(net::ServerMsgType::kDeltaSnapshot));
  w.u32(snap.server_frame);
  w.u32(snap.ack_sequence);
  w.i64(snap.client_time_echo_ns);
  w.u16(snap.assigned_port);
  w.u32(baseline_frame);
  w.vec3(snap.origin);
  w.vec3(snap.velocity);
  w.u16(static_cast<uint16_t>(snap.health));
  w.u16(static_cast<uint16_t>(snap.armor));
  w.u16(static_cast<uint16_t>(snap.frags));

  // Baseline index by id. Baselines come out of earlier sweeps in id
  // order, so the sort is a no-op check in practice; kept for arbitrary
  // (e.g. test-constructed) baselines.
  scratch.base_ids.clear();
  for (uint32_t i = 0; i < static_cast<uint32_t>(baseline.size()); ++i)
    scratch.base_ids.emplace_back(baseline[i].id, i);
  if (!std::is_sorted(scratch.base_ids.begin(), scratch.base_ids.end()))
    std::sort(scratch.base_ids.begin(), scratch.base_ids.end());
  scratch.in_rows.assign(baseline.size(), 0);

  // Rows and index are both id-ascending: one merge walk matches every
  // row to its baseline entry.
  int encoded = 0;
  net::ByteWriter& body = scratch.body;
  body.clear();
  size_t j = 0;
  for (const uint32_t row : rows) {
    const uint32_t id = view.ids[row];
    while (j < scratch.base_ids.size() && scratch.base_ids[j].first < id) ++j;
    uint8_t mask = net::kDeltaAll;
    if (j < scratch.base_ids.size() && scratch.base_ids[j].first == id) {
      const uint32_t bi = scratch.base_ids[j].second;
      const net::EntityUpdate& b = baseline[bi];
      scratch.in_rows[bi] = 1;
      mask = 0;
      if (b.origin != Vec3{view.x[row], view.y[row], view.z[row]})
        mask |= net::kDeltaOrigin;
      if (b.yaw_deg != view.yaw[row]) mask |= net::kDeltaYaw;
      if (b.state != view.state[row]) mask |= net::kDeltaState;
      if (b.type != view.type[row]) mask |= net::kDeltaType;
    }
    if (mask == 0) continue;
    ++encoded;
    const uint8_t* rec = view.record(row);
    body.u32(id);
    body.u8(mask);
    if (mask & net::kDeltaOrigin) body.bytes(rec + FrameView::kOffOrigin, 12);
    if (mask & net::kDeltaYaw) body.bytes(rec + FrameView::kOffYaw, 4);
    if (mask & net::kDeltaState) body.u8(rec[FrameView::kOffState]);
    if (mask & net::kDeltaType) body.u8(rec[FrameView::kOffType]);
  }

  // Removals: baseline entries no row matched, in baseline order.
  uint16_t removed = 0;
  for (const uint8_t hit : scratch.in_rows) removed += hit == 0 ? 1 : 0;
  w.u16(removed);
  for (size_t i = 0; i < baseline.size(); ++i) {
    if (scratch.in_rows[i] == 0) w.u32(baseline[i].id);
  }
  w.u16(static_cast<uint16_t>(encoded));
  w.bytes(body.data().data(), body.size());
  write_events(events, w);
  return encoded;
}

}  // namespace qserv::sim
