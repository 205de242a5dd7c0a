#include "src/recovery/checkpoint.hpp"

#include <chrono>

#include "src/net/bytestream.hpp"
#include "src/net/protocol.hpp"
#include "src/recovery/digest.hpp"
#include "src/util/check.hpp"

namespace qserv::recovery {
namespace {

// Hard ceilings the loader enforces regardless of what counts the file
// claims: a length-lying checkpoint is rejected, not trusted.
constexpr uint32_t kMaxEntities = 1u << 20;
constexpr uint32_t kMaxClients = 1u << 16;
constexpr uint32_t kMaxNodes = 1u << 16;
constexpr uint32_t kMaxEvicted = 1u << 16;
constexpr size_t kMaxNameLen = 64;
// Conservative lower bound on an encoded entity, for count-vs-remaining
// checks before any resize.
constexpr size_t kMinEntityBytes = 32;
constexpr size_t kMinClientBytes = 16;

void encode_entity(net::ByteWriter& w, const sim::Entity& e) {
  w.u32(e.id);
  w.u8(static_cast<uint8_t>(e.type));
  w.u8(static_cast<uint8_t>(e.solid) | (static_cast<uint8_t>(e.on_ground) << 1) |
       (static_cast<uint8_t>(e.available) << 2));
  w.i32(e.areanode);
  w.i32(e.cluster);
  w.vec3(e.origin);
  w.vec3(e.velocity);
  w.f32(e.yaw_deg);
  w.vec3(e.mins);
  w.vec3(e.maxs);
  w.str(e.name);
  w.i32(e.health);
  w.i32(e.armor);
  w.i32(e.frags);
  w.i32(e.grenades);
  w.u8(static_cast<uint8_t>(e.weapon));
  w.i64(e.next_attack.ns);
  w.u32(e.deaths);
  w.u8(static_cast<uint8_t>(e.item));
  w.i64(e.respawn_at.ns);
  w.u32(e.owner);
  w.vec3(e.dir);
  w.i64(e.expire_at.ns);
  w.vec3(e.teleport_dest);
}

bool decode_entity(net::ByteReader& r, sim::Entity& e) {
  e.id = r.u32();
  e.type = static_cast<sim::EntityType>(r.u8());
  const uint8_t flags = r.u8();
  e.solid = (flags & 1) != 0;
  e.on_ground = (flags & 2) != 0;
  e.available = (flags & 4) != 0;
  e.active = true;
  e.areanode = r.i32();
  e.cluster = r.i32();
  e.origin = r.vec3();
  e.velocity = r.vec3();
  e.yaw_deg = r.f32();
  e.mins = r.vec3();
  e.maxs = r.vec3();
  e.name = r.str();
  e.health = r.i32();
  e.armor = r.i32();
  e.frags = r.i32();
  e.grenades = r.i32();
  e.weapon = static_cast<sim::Weapon>(r.u8());
  e.next_attack = vt::TimePoint{r.i64()};
  e.deaths = r.u32();
  e.item = static_cast<spatial::ItemType>(r.u8());
  e.respawn_at = vt::TimePoint{r.i64()};
  e.owner = r.u32();
  e.dir = r.vec3();
  e.expire_at = vt::TimePoint{r.i64()};
  e.teleport_dest = r.vec3();
  return r.ok() && e.name.size() <= kMaxNameLen;
}

// True iff `count` elements of at least `min_bytes` each could possibly
// fit in what's left of the buffer. Checked before every resize so a
// length-lying count can't balloon memory.
bool count_fits(const net::ByteReader& r, uint64_t count, size_t min_bytes) {
  return count <= r.remaining() / min_bytes;
}

}  // namespace

const char* load_error_name(LoadError e) {
  switch (e) {
    case LoadError::kNone: return "none";
    case LoadError::kTruncated: return "truncated";
    case LoadError::kBadMagic: return "bad-magic";
    case LoadError::kBadVersion: return "bad-version";
    case LoadError::kCorrupt: return "corrupt";
    case LoadError::kReplayDiverged: return "replay-diverged";
    case LoadError::kChecksum: return "checksum";
  }
  return "?";
}

std::vector<uint8_t> encode_checkpoint(const CheckpointData& c) {
  net::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(c.frame);
  w.i64(c.captured_at_ns);
  w.u64(c.seed);
  w.u16(c.base_port);
  w.u32(c.threads);
  w.u32(c.max_clients);
  w.i32(c.areanode_depth);
  w.u64(c.next_order);
  w.u64(c.digest);
  for (const uint64_t word : c.rng_state) w.u64(word);
  // Map text can exceed the u16 str() limit; length-prefix with u32.
  w.u32(static_cast<uint32_t>(c.map_text.size()));
  w.bytes(reinterpret_cast<const uint8_t*>(c.map_text.data()),
          c.map_text.size());
  w.u32(c.entity_storage);
  w.u32(static_cast<uint32_t>(c.entities.size()));
  for (const auto& e : c.entities) encode_entity(w, e);
  w.u32(static_cast<uint32_t>(c.free_ids.size()));
  for (const uint32_t id : c.free_ids) w.u32(id);
  w.u32(static_cast<uint32_t>(c.node_objects.size()));
  for (const auto& [node, ids] : c.node_objects) {
    w.i32(node);
    w.u32(static_cast<uint32_t>(ids.size()));
    for (const uint32_t id : ids) w.u32(id);
  }
  w.u32(static_cast<uint32_t>(c.clients.size()));
  for (const auto& cl : c.clients) {
    w.u16(cl.slot);
    w.u16(cl.remote_port);
    w.str(cl.name);
    w.u32(cl.entity_id);
    w.u32(cl.owner_thread);
    w.u32(cl.last_seq);
    w.i64(cl.last_move_time_ns);
    w.i64(cl.last_heard_ns);
    w.u32(cl.chan_out_seq);
    w.u32(cl.chan_in_seq);
    w.u32(cl.chan_in_acked);
  }
  w.u32(static_cast<uint32_t>(c.evicted_ports.size()));
  for (const uint16_t p : c.evicted_ports) w.u16(p);
  std::vector<uint8_t> image = w.take();
  seal_content(image);
  return image;
}

LoadError decode_checkpoint(const uint8_t* data, size_t n,
                            CheckpointData& out) {
  net::ByteReader r(data, n);
  const uint32_t magic = r.u32();
  const uint32_t version = r.u32();
  if (r.overflowed()) return LoadError::kTruncated;
  if (magic != kCheckpointMagic) return LoadError::kBadMagic;
  if (version != kCheckpointVersion) return LoadError::kBadVersion;
  // Content checksum before any section is interpreted. Magic/version
  // are checked first so a wrong-format file still reports as such.
  if (n < 16) return LoadError::kTruncated;
  if (!content_sealed(data, n)) return LoadError::kChecksum;

  out = CheckpointData{};
  out.frame = r.u64();
  out.captured_at_ns = r.i64();
  out.seed = r.u64();
  out.base_port = r.u16();
  out.threads = r.u32();
  out.max_clients = r.u32();
  out.areanode_depth = r.i32();
  out.next_order = r.u64();
  out.digest = r.u64();
  for (auto& word : out.rng_state) word = r.u64();

  const uint32_t map_len = r.u32();
  if (r.overflowed()) return LoadError::kTruncated;
  if (map_len > r.remaining()) return LoadError::kCorrupt;
  out.map_text.assign(reinterpret_cast<const char*>(data + (n - r.remaining())),
                      map_len);
  // Advance past the raw bytes (ByteReader has no skip; re-seat a reader).
  net::ByteReader rest(data + (n - r.remaining()) + map_len,
                       r.remaining() - map_len);

  out.entity_storage = rest.u32();
  if (out.entity_storage > kMaxEntities) return LoadError::kCorrupt;

  const uint32_t entity_count = rest.u32();
  if (rest.overflowed()) return LoadError::kTruncated;
  if (entity_count > kMaxEntities ||
      !count_fits(rest, entity_count, kMinEntityBytes))
    return LoadError::kCorrupt;
  out.entities.resize(entity_count);
  uint32_t prev_id = 0;
  for (uint32_t i = 0; i < entity_count; ++i) {
    if (!decode_entity(rest, out.entities[i]))
      return rest.overflowed() ? LoadError::kTruncated : LoadError::kCorrupt;
    const uint32_t id = out.entities[i].id;
    if (id >= out.entity_storage) return LoadError::kCorrupt;
    if (i > 0 && id <= prev_id) return LoadError::kCorrupt;  // id order
    prev_id = id;
  }

  const uint32_t free_count = rest.u32();
  if (rest.overflowed()) return LoadError::kTruncated;
  if (free_count > kMaxEntities || !count_fits(rest, free_count, 4))
    return LoadError::kCorrupt;
  out.free_ids.resize(free_count);
  for (auto& id : out.free_ids) {
    id = rest.u32();
    if (!rest.overflowed() && id >= out.entity_storage)
      return LoadError::kCorrupt;
  }

  const uint32_t node_count = rest.u32();
  if (rest.overflowed()) return LoadError::kTruncated;
  if (node_count > kMaxNodes || !count_fits(rest, node_count, 8))
    return LoadError::kCorrupt;
  out.node_objects.resize(node_count);
  for (auto& [node, ids] : out.node_objects) {
    node = rest.i32();
    const uint32_t id_count = rest.u32();
    if (rest.overflowed()) return LoadError::kTruncated;
    if (node < 0 || id_count > kMaxEntities || !count_fits(rest, id_count, 4))
      return LoadError::kCorrupt;
    ids.resize(id_count);
    for (auto& id : ids) id = rest.u32();
  }

  const uint32_t client_count = rest.u32();
  if (rest.overflowed()) return LoadError::kTruncated;
  if (client_count > kMaxClients ||
      !count_fits(rest, client_count, kMinClientBytes))
    return LoadError::kCorrupt;
  out.clients.resize(client_count);
  for (auto& cl : out.clients) {
    cl.slot = rest.u16();
    cl.remote_port = rest.u16();
    cl.name = rest.str();
    if (cl.name.size() > kMaxNameLen) return LoadError::kCorrupt;
    cl.entity_id = rest.u32();
    cl.owner_thread = rest.u32();
    cl.last_seq = rest.u32();
    cl.last_move_time_ns = rest.i64();
    cl.last_heard_ns = rest.i64();
    cl.chan_out_seq = rest.u32();
    cl.chan_in_seq = rest.u32();
    cl.chan_in_acked = rest.u32();
    if (!rest.overflowed() &&
        (cl.slot >= out.max_clients || cl.entity_id >= out.entity_storage))
      return LoadError::kCorrupt;
  }

  const uint32_t evicted_count = rest.u32();
  if (rest.overflowed()) return LoadError::kTruncated;
  if (evicted_count > kMaxEvicted || !count_fits(rest, evicted_count, 2))
    return LoadError::kCorrupt;
  out.evicted_ports.resize(evicted_count);
  for (auto& p : out.evicted_ports) p = rest.u16();

  if (rest.overflowed()) return LoadError::kTruncated;
  return LoadError::kNone;
}

void restore_world(const CheckpointData& c, sim::World& w) {
  w.reserve_entities(c.entity_storage);
  w.begin_restore();
  for (const auto& e : c.entities) w.restore_entity(e);
  for (const auto& [node, ids] : c.node_objects) {
    for (const uint32_t id : ids) w.restore_link(id, node);
  }
  w.finish_restore(c.free_ids);
  w.rng().set_state(c.rng_state);
}

size_t CheckpointManager::store(const CheckpointData& c) {
  const auto t0 = std::chrono::steady_clock::now();
  // Encode fully into the unpublished buffer first; the release-store
  // below is the single publication point (see the class comment's
  // swap-order audit).
  const int next = current_.load(std::memory_order_relaxed) == 0 ? 1 : 0;
  buf_[next] = encode_checkpoint(c);
  frame_[next] = c.frame;
  current_.store(next, std::memory_order_release);
  const auto t1 = std::chrono::steady_clock::now();
  const int64_t pause_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  if (pause_ns > max_pause_ns_) max_pause_ns_ = pause_ns;
  ++count_;
  return buf_[next].size();
}

}  // namespace qserv::recovery
