#include "src/net/protocol.hpp"

#include <map>
#include <set>

namespace qserv::net {

namespace {
constexpr size_t kMaxSnapshotEntities = 4096;
constexpr size_t kMaxSnapshotEvents = 4096;

// Minimum wire bytes per record, used to bound every length-prefixed
// count against the bytes actually present BEFORE allocating: a
// length-lying header must cost the attacker bandwidth, not us memory.
constexpr size_t kEntityUpdateWire = 4 + 1 + 12 + 4 + 1;  // id,type,org,yaw,st
constexpr size_t kDeltaRemovalWire = 4;                   // id
constexpr size_t kDeltaEntityMinWire = 4 + 1;             // id + empty mask

// A count is credible only if the remaining buffer could hold that many
// minimum-size records.
bool count_fits(const ByteReader& r, size_t n, size_t min_record_bytes) {
  return n <= r.remaining() / min_record_bytes;
}
}  // namespace

std::vector<uint8_t> encode(const ConnectMsg& m) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ClientMsgType::kConnect));
  w.str(m.name);
  return w.take();
}

std::vector<uint8_t> encode(const MoveCmd& m) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ClientMsgType::kMove));
  w.u32(m.sequence);
  w.i64(m.client_time_ns);
  w.u32(m.baseline_frame);
  w.u16(m.msec);
  w.f32(m.yaw_deg);
  w.f32(m.pitch_deg);
  w.f32(m.forward);
  w.f32(m.side);
  w.f32(m.up);
  w.u8(m.buttons);
  return w.take();
}

std::vector<uint8_t> encode_disconnect() {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ClientMsgType::kDisconnect));
  return w.take();
}

std::vector<uint8_t> encode(const RejectMsg& m) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ServerMsgType::kReject));
  w.u8(static_cast<uint8_t>(m.reason));
  return w.take();
}

std::vector<uint8_t> encode(const ConnectAck& m) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ServerMsgType::kConnectAck));
  w.u32(m.player_id);
  w.u32(m.server_frame);
  w.u16(m.assigned_port);
  w.vec3(m.spawn_origin);
  return w.take();
}

std::vector<uint8_t> encode(const Snapshot& m) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(ServerMsgType::kSnapshot));
  w.u32(m.server_frame);
  w.u32(m.ack_sequence);
  w.i64(m.client_time_echo_ns);
  w.u16(m.assigned_port);
  w.vec3(m.origin);
  w.vec3(m.velocity);
  w.u16(static_cast<uint16_t>(m.health));
  w.u16(static_cast<uint16_t>(m.armor));
  w.u16(static_cast<uint16_t>(m.frags));
  w.u16(static_cast<uint16_t>(m.entities.size()));
  for (const auto& e : m.entities) {
    w.u32(e.id);
    w.u8(e.type);
    w.vec3(e.origin);
    w.f32(e.yaw_deg);
    w.u8(e.state);
  }
  w.u16(static_cast<uint16_t>(m.events.size()));
  for (const auto& ev : m.events) {
    w.u8(ev.kind);
    w.u32(ev.a);
    w.u32(ev.b);
    w.vec3(ev.pos);
  }
  return w.take();
}

void write_event(ByteWriter& w, const GameEvent& e) {
  w.u8(e.kind);
  w.u32(e.a);
  w.u32(e.b);
  w.vec3(e.pos);
}

bool decode_events(ByteReader& r, std::vector<GameEvent>& events) {
  const uint16_t n = r.u16();
  if (!r.ok() || n > kMaxSnapshotEvents ||
      !count_fits(r, n, kGameEventWireBytes))
    return false;
  events.resize(n);
  for (auto& ev : events) {
    ev.kind = r.u8();
    ev.a = r.u32();
    ev.b = r.u32();
    ev.pos = r.vec3();
  }
  return r.ok();
}

bool decode_delta(ByteReader& r, const BaselineLookup& baseline_lookup,
                  Snapshot& out) {
  out = Snapshot{};
  out.server_frame = r.u32();
  out.ack_sequence = r.u32();
  out.client_time_echo_ns = r.i64();
  out.assigned_port = r.u16();
  out.baseline_frame = r.u32();
  out.origin = r.vec3();
  out.velocity = r.vec3();
  out.health = static_cast<int16_t>(r.u16());
  out.armor = static_cast<int16_t>(r.u16());
  out.frags = static_cast<int16_t>(r.u16());
  if (!r.ok()) return false;

  const std::vector<EntityUpdate>* baseline_ptr =
      baseline_lookup(out.baseline_frame);
  if (baseline_ptr == nullptr) return false;  // baseline unknown: wait
  const std::vector<EntityUpdate>& baseline = *baseline_ptr;

  const uint16_t n_removed = r.u16();
  if (!r.ok() || n_removed > kMaxSnapshotEntities ||
      !count_fits(r, n_removed, kDeltaRemovalWire))
    return false;
  std::set<uint32_t> removed;
  for (int i = 0; i < n_removed; ++i) removed.insert(r.u32());

  // Start from the baseline, drop removals, then apply changes.
  std::map<uint32_t, EntityUpdate> merged;
  for (const auto& e : baseline) {
    if (!removed.contains(e.id)) merged[e.id] = e;
  }
  const uint16_t n_changed = r.u16();
  if (!r.ok() || n_changed > kMaxSnapshotEntities ||
      !count_fits(r, n_changed, kDeltaEntityMinWire))
    return false;
  for (int i = 0; i < n_changed; ++i) {
    const uint32_t id = r.u32();
    const uint8_t mask = r.u8();
    if (!r.ok()) return false;
    EntityUpdate& e = merged[id];
    e.id = id;
    if (mask & kDeltaOrigin) e.origin = r.vec3();
    if (mask & kDeltaYaw) e.yaw_deg = r.f32();
    if (mask & kDeltaState) e.state = r.u8();
    if (mask & kDeltaType) e.type = r.u8();
  }
  out.entities.reserve(merged.size());
  for (auto& [id, e] : merged) out.entities.push_back(e);

  return decode_events(r, out.events) && r.ok();
}

bool decode_client_type(ByteReader& r, ClientMsgType& type) {
  const uint8_t t = r.u8();
  if (!r.ok()) return false;
  if (t != static_cast<uint8_t>(ClientMsgType::kConnect) &&
      t != static_cast<uint8_t>(ClientMsgType::kMove) &&
      t != static_cast<uint8_t>(ClientMsgType::kDisconnect)) {
    return false;
  }
  type = static_cast<ClientMsgType>(t);
  return true;
}

bool decode(ByteReader& r, ConnectMsg& m) {
  m.name = r.str();
  // str() is already bounded against the buffer; additionally refuse
  // absurd names so a hostile connect cannot park 64 KiB per slot in the
  // client registry.
  return r.ok() && m.name.size() <= kMaxPlayerNameLen;
}

bool decode(ByteReader& r, MoveCmd& m) {
  m.sequence = r.u32();
  m.client_time_ns = r.i64();
  m.baseline_frame = r.u32();
  m.msec = r.u16();
  // A lying msec would have execute_move simulate an arbitrarily long
  // timestep on the attacker's behalf; real clients tick ~30 Hz.
  if (m.msec > kMaxMoveMsec) return false;
  m.yaw_deg = r.f32();
  m.pitch_deg = r.f32();
  m.forward = r.f32();
  m.side = r.f32();
  m.up = r.f32();
  m.buttons = r.u8();
  return r.ok();
}

bool decode_server_type(ByteReader& r, ServerMsgType& type) {
  const uint8_t t = r.u8();
  if (!r.ok()) return false;
  if (t != static_cast<uint8_t>(ServerMsgType::kConnectAck) &&
      t != static_cast<uint8_t>(ServerMsgType::kSnapshot) &&
      t != static_cast<uint8_t>(ServerMsgType::kDeltaSnapshot) &&
      t != static_cast<uint8_t>(ServerMsgType::kReject)) {
    return false;
  }
  type = static_cast<ServerMsgType>(t);
  return true;
}

bool decode(ByteReader& r, RejectMsg& m) {
  const uint8_t reason = r.u8();
  if (!r.ok()) return false;
  if (reason != static_cast<uint8_t>(RejectReason::kServerFull) &&
      reason != static_cast<uint8_t>(RejectReason::kEvicted) &&
      reason != static_cast<uint8_t>(RejectReason::kServerBusy)) {
    return false;
  }
  m.reason = static_cast<RejectReason>(reason);
  return true;
}

bool decode(ByteReader& r, ConnectAck& m) {
  m.player_id = r.u32();
  m.server_frame = r.u32();
  m.assigned_port = r.u16();
  m.spawn_origin = r.vec3();
  return r.ok();
}

bool decode(ByteReader& r, Snapshot& m) {
  m.server_frame = r.u32();
  m.ack_sequence = r.u32();
  m.client_time_echo_ns = r.i64();
  m.assigned_port = r.u16();
  m.origin = r.vec3();
  m.velocity = r.vec3();
  m.health = static_cast<int16_t>(r.u16());
  m.armor = static_cast<int16_t>(r.u16());
  m.frags = static_cast<int16_t>(r.u16());
  const uint16_t n_ent = r.u16();
  if (!r.ok() || n_ent > kMaxSnapshotEntities ||
      !count_fits(r, n_ent, kEntityUpdateWire))
    return false;
  m.entities.resize(n_ent);
  for (auto& e : m.entities) {
    e.id = r.u32();
    e.type = r.u8();
    e.origin = r.vec3();
    e.yaw_deg = r.f32();
    e.state = r.u8();
  }
  return decode_events(r, m.events);
}

}  // namespace qserv::net
