#include "tests/reply_oracle.hpp"

#include <cstring>
#include <map>

#include "src/sim/combat.hpp"
#include "src/util/check.hpp"

namespace qserv::sim {

SnapshotStats build_snapshot(const World& world, const Entity& player,
                             uint32_t server_frame, uint32_t ack_sequence,
                             int64_t client_time_echo_ns,
                             const std::vector<net::GameEvent>& events,
                             net::Snapshot& out, bool thin_far) {
  SnapshotStats stats;
  // Field-wise reset instead of `out = net::Snapshot{}`: a snapshot built
  // into a reused buffer keeps its entity/event capacity across frames.
  out.assigned_port = 0;
  out.baseline_frame = 0;
  out.entities.clear();
  out.events.clear();
  out.server_frame = server_frame;
  out.ack_sequence = ack_sequence;
  out.client_time_echo_ns = client_time_echo_ns;
  out.origin = player.origin;
  out.velocity = player.velocity;
  out.health = static_cast<int16_t>(player.health);
  out.armor = static_cast<int16_t>(player.armor);
  out.frags = static_cast<int16_t>(player.frags);

  const Vec3 eye = eye_pos(player);
  const spatial::PvsData& pvs = world.map().pvs;
  const bool use_pvs = !pvs.empty();
  const int my_cluster = use_pvs ? player.cluster : -1;
  world.for_each_entity([&](const Entity& e) {
    if (e.id == player.id || e.type == EntityType::kNone) return;
    ++stats.interest_checks;
    const float d2 = dist_sq(e.origin, player.origin);
    if (d2 > kInterestRange * kInterestRange) return;
    // Governor rung 1: far entities update at half rate under overload,
    // skipping the expensive visibility work below entirely.
    constexpr float kThinRange = kInterestRange * 0.5f;
    if (thin_far && d2 > kThinRange * kThinRange &&
        ((e.id + server_frame) & 1u) != 0) {
      return;
    }

    if (e.is_player() && d2 > kAlwaysAudibleRange * kAlwaysAudibleRange) {
      if (use_pvs) {
        // Quake-style: a precomputed PVS lookup instead of a ray trace.
        // Maps with higher visibility pass more entities and so cost
        // more reply time.
        world.charge(world.costs().per_pvs_check);
        if (!pvs.can_see(my_cluster, e.cluster)) return;
      } else {
        // No PVS on this map: fall back to a line-of-sight trace.
        const auto tr = world.collision().trace_line(eye, eye_pos(e));
        ++stats.los_traces;
        stats.los_brushes += tr.brushes_tested;
        world.charge(world.costs().per_los_trace_brush * tr.brushes_tested);
        if (tr.hit()) return;
      }
    }

    net::EntityUpdate u;
    u.id = e.id;
    u.type = static_cast<uint8_t>(e.type);
    u.origin = e.origin;
    u.yaw_deg = e.yaw_deg;
    switch (e.type) {
      case EntityType::kItem:
        u.state = e.available ? 1 : 0;
        break;
      case EntityType::kPlayer:
        u.state = e.health > 0 ? 1 : 0;
        break;
      default:
        u.state = 0;
        break;
    }
    out.entities.push_back(u);
    ++stats.visible_entities;
  });

  out.events = events;

  world.charge(world.costs().per_interest_check * stats.interest_checks +
               world.costs().per_visible_entity * stats.visible_entities +
               world.costs().per_event *
                   static_cast<int64_t>(events.size()));
  return stats;
}

namespace {

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

bool views_identical(const FrameView& a, const FrameView& b) {
  return same_bytes(a.ids, b.ids) && same_bytes(a.x, b.x) &&
         same_bytes(a.y, b.y) && same_bytes(a.z, b.z) &&
         same_bytes(a.yaw, b.yaw) && same_bytes(a.cluster, b.cluster) &&
         same_bytes(a.type, b.type) && same_bytes(a.state, b.state) &&
         same_bytes(a.is_player, b.is_player) && same_bytes(a.wire, b.wire);
}

}  // namespace qserv::sim

namespace qserv::net {

std::vector<uint8_t> encode_delta(const Snapshot& now,
                                  const std::vector<EntityUpdate>& baseline,
                                  uint32_t baseline_frame,
                                  int* stats_encoded_out) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ServerMsgType::kDeltaSnapshot));
  w.u32(now.server_frame);
  w.u32(now.ack_sequence);
  w.i64(now.client_time_echo_ns);
  w.u16(now.assigned_port);
  w.u32(baseline_frame);
  // Private player state is small and always sent in full.
  w.vec3(now.origin);
  w.vec3(now.velocity);
  w.u16(static_cast<uint16_t>(now.health));
  w.u16(static_cast<uint16_t>(now.armor));
  w.u16(static_cast<uint16_t>(now.frags));

  // Index the baseline by id.
  std::map<uint32_t, const EntityUpdate*> base;
  for (const auto& e : baseline) base[e.id] = &e;

  // Removals: baseline entities no longer visible.
  std::vector<uint32_t> removed;
  {
    std::map<uint32_t, bool> present;
    for (const auto& e : now.entities) present[e.id] = true;
    for (const auto& e : baseline) {
      if (!present.contains(e.id)) removed.push_back(e.id);
    }
  }
  w.u16(static_cast<uint16_t>(removed.size()));
  for (const uint32_t id : removed) w.u32(id);

  // Changed/new entities with per-field masks.
  int encoded = 0;
  ByteWriter body;
  for (const auto& e : now.entities) {
    uint8_t mask = 0;
    const auto it = base.find(e.id);
    if (it == base.end()) {
      mask = kDeltaAll;
    } else {
      const EntityUpdate& b = *it->second;
      if (e.origin != b.origin) mask |= kDeltaOrigin;
      if (e.yaw_deg != b.yaw_deg) mask |= kDeltaYaw;
      if (e.state != b.state) mask |= kDeltaState;
      if (e.type != b.type) mask |= kDeltaType;
    }
    if (mask == 0) continue;  // unchanged: costs nothing on the wire
    ++encoded;
    body.u32(e.id);
    body.u8(mask);
    if (mask & kDeltaOrigin) body.vec3(e.origin);
    if (mask & kDeltaYaw) body.f32(e.yaw_deg);
    if (mask & kDeltaState) body.u8(e.state);
    if (mask & kDeltaType) body.u8(e.type);
  }
  w.u16(static_cast<uint16_t>(encoded));
  w.bytes(body.data().data(), body.size());

  w.u16(static_cast<uint16_t>(now.events.size()));
  for (const auto& ev : now.events) {
    w.u8(ev.kind);
    w.u32(ev.a);
    w.u32(ev.b);
    w.vec3(ev.pos);
  }
  if (stats_encoded_out != nullptr) *stats_encoded_out = encoded;
  return w.take();
}

EventRecords::EventRecords(const std::vector<GameEvent>& events)
    : count(events.size()) {
  for (const GameEvent& e : events) write_event(wire, e);
}

std::vector<GameEvent> decode_span(EventSpan span) {
  ByteWriter section;
  section.u16(static_cast<uint16_t>(span.count));
  section.bytes(span.data, span.bytes());
  ByteReader r(section.data());
  std::vector<GameEvent> events;
  QSERV_CHECK(decode_events(r, events) && r.remaining() == 0);
  return events;
}

}  // namespace qserv::net
