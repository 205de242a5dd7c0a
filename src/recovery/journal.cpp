#include "src/recovery/journal.hpp"

#include <algorithm>

#include "src/net/bytestream.hpp"

namespace qserv::recovery {
namespace {

constexpr uint32_t kMaxFrames = 1u << 20;
constexpr uint32_t kMaxRecords = 1u << 20;
constexpr size_t kMinFrameBytes = 32;
constexpr size_t kMinRecordBytes = 16;
constexpr size_t kMaxNameLen = 64;

void encode_record(net::ByteWriter& w, const JournalRecord& r) {
  w.u8(static_cast<uint8_t>(r.kind));
  w.u8(r.thread);
  w.u16(r.port);
  w.u32(r.entity);
  w.u64(r.order);
  w.i64(r.t_ns);
  if (r.kind == RecordKind::kMoveExec) {
    w.u32(r.cmd.sequence);
    w.i64(r.cmd.client_time_ns);
    w.u32(r.cmd.baseline_frame);
    w.u16(r.cmd.msec);
    w.f32(r.cmd.yaw_deg);
    w.f32(r.cmd.pitch_deg);
    w.f32(r.cmd.forward);
    w.f32(r.cmd.side);
    w.f32(r.cmd.up);
    w.u8(r.cmd.buttons);
  } else if (r.kind == RecordKind::kConnectSpawn ||
             r.kind == RecordKind::kHandoffOut) {
    w.str(r.name);
  } else if (r.kind == RecordKind::kWorldPhase) {
    w.i64(r.dt_ns);
  } else if (r.kind == RecordKind::kHandoffIn) {
    w.str(r.name);
    w.vec3(r.hand.origin);
    w.vec3(r.hand.velocity);
    w.f32(r.hand.yaw_deg);
    w.i32(r.hand.health);
    w.i32(r.hand.armor);
    w.i32(r.hand.frags);
    w.i32(r.hand.grenades);
    w.u8(r.hand.weapon);
    w.i64(r.hand.next_attack_ns);
    w.u32(r.hand.deaths);
  }
}

bool decode_record(net::ByteReader& r, JournalRecord& out) {
  out.kind = static_cast<RecordKind>(r.u8());
  out.thread = r.u8();
  out.port = r.u16();
  out.entity = r.u32();
  out.order = r.u64();
  out.t_ns = r.i64();
  if (out.kind == RecordKind::kMoveExec) {
    out.cmd.sequence = r.u32();
    out.cmd.client_time_ns = r.i64();
    out.cmd.baseline_frame = r.u32();
    out.cmd.msec = r.u16();
    out.cmd.yaw_deg = r.f32();
    out.cmd.pitch_deg = r.f32();
    out.cmd.forward = r.f32();
    out.cmd.side = r.f32();
    out.cmd.up = r.f32();
    out.cmd.buttons = r.u8();
  } else if (out.kind == RecordKind::kConnectSpawn ||
             out.kind == RecordKind::kHandoffOut) {
    out.name = r.str();
    if (out.name.size() > kMaxNameLen) return false;
  } else if (out.kind == RecordKind::kWorldPhase) {
    out.dt_ns = r.i64();
  } else if (out.kind == RecordKind::kHandoffIn) {
    out.name = r.str();
    if (out.name.size() > kMaxNameLen) return false;
    out.hand.origin = r.vec3();
    out.hand.velocity = r.vec3();
    out.hand.yaw_deg = r.f32();
    out.hand.health = r.i32();
    out.hand.armor = r.i32();
    out.hand.frags = r.i32();
    out.hand.grenades = r.i32();
    out.hand.weapon = r.u8();
    out.hand.next_attack_ns = r.i64();
    out.hand.deaths = r.u32();
  }
  return r.ok();
}

bool count_fits(const net::ByteReader& r, uint64_t count, size_t min_bytes) {
  return count <= r.remaining() / min_bytes;
}

// The inverse of capture_handoff_state, field for field.
void apply_handoff_state(sim::Entity& e, const HandoffState& hs) {
  e.origin = hs.origin;
  e.velocity = hs.velocity;
  e.yaw_deg = hs.yaw_deg;
  e.health = hs.health;
  e.armor = hs.armor;
  e.frags = hs.frags;
  e.grenades = hs.grenades;
  e.weapon = static_cast<sim::Weapon>(hs.weapon);
  e.next_attack = vt::TimePoint{hs.next_attack_ns};
  e.deaths = hs.deaths;
}

}  // namespace

const char* record_kind_name(RecordKind k) {
  switch (k) {
    case RecordKind::kMoveExec: return "move-exec";
    case RecordKind::kConnectSpawn: return "connect-spawn";
    case RecordKind::kDisconnect: return "disconnect";
    case RecordKind::kEvict: return "evict";
    case RecordKind::kWorldPhase: return "world-phase";
    case RecordKind::kHandoffOut: return "handoff-out";
    case RecordKind::kHandoffIn: return "handoff-in";
  }
  return "?";
}

HandoffState capture_handoff_state(const sim::Entity& e) {
  HandoffState hs;
  hs.origin = e.origin;
  hs.velocity = e.velocity;
  hs.yaw_deg = e.yaw_deg;
  hs.health = e.health;
  hs.armor = e.armor;
  hs.frags = e.frags;
  hs.grenades = e.grenades;
  hs.weapon = static_cast<uint8_t>(e.weapon);
  hs.next_attack_ns = e.next_attack.ns;
  hs.deaths = e.deaths;
  return hs;
}

sim::Entity& adopt_player(sim::World& w, const std::string& name,
                          const HandoffState& hs) {
  sim::Entity& e = w.spawn_player(name);
  apply_handoff_state(e, hs);
  w.relink(e);
  return e;
}

FlightRecorder::FlightRecorder(const Config& cfg, uint32_t threads,
                               uint64_t seed)
    : cfg_(cfg), seed_(seed), staging_(threads == 0 ? 1 : threads) {}

void FlightRecorder::record(uint32_t thread, JournalRecord rec) {
  if (thread >= staging_.size()) thread = 0;
  staging_[thread].push_back(std::move(rec));
  records_staged_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::seal_frame(uint64_t frame, vt::TimePoint t0,
                                vt::Duration dt, uint64_t digest,
                                std::vector<EntityDigest> entity_digests) {
  FrameJournal fj;
  fj.frame = frame;
  fj.world_t0_ns = t0.ns;
  fj.world_dt_ns = dt.ns;
  fj.digest = digest;
  fj.entity_digests = std::move(entity_digests);
  for (auto& stage : staging_) {
    for (auto& rec : stage) fj.records.push_back(std::move(rec));
    stage.clear();
  }
  // Serialization order: the order replay must apply them in.
  std::sort(fj.records.begin(), fj.records.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              return a.order < b.order;
            });
  ring_.push_back(std::move(fj));
  while (ring_.size() > cfg_.journal_frames && !ring_.empty())
    ring_.pop_front();
  ++frames_sealed_;
}

std::vector<uint8_t> FlightRecorder::encode() const {
  return encode_journal(seed_, static_cast<uint32_t>(staging_.size()), ring_);
}

std::vector<uint8_t> encode_journal(uint64_t seed, uint32_t threads,
                                    const std::deque<FrameJournal>& frames) {
  net::ByteWriter w;
  w.u32(kJournalMagic);
  w.u32(kJournalVersion);
  w.u64(seed);
  w.u32(threads);
  w.u32(static_cast<uint32_t>(frames.size()));
  for (const auto& fj : frames) {
    w.u64(fj.frame);
    w.i64(fj.world_t0_ns);
    w.i64(fj.world_dt_ns);
    w.u64(fj.digest);
    w.u32(static_cast<uint32_t>(fj.records.size()));
    for (const auto& rec : fj.records) encode_record(w, rec);
    w.u32(static_cast<uint32_t>(fj.entity_digests.size()));
    for (const auto& ed : fj.entity_digests) {
      w.u32(ed.id);
      w.u32(ed.hash);
    }
  }
  return w.take();
}

LoadError decode_journal(const uint8_t* data, size_t n, JournalFile& out) {
  net::ByteReader r(data, n);
  const uint32_t magic = r.u32();
  const uint32_t version = r.u32();
  if (r.overflowed()) return LoadError::kTruncated;
  if (magic != kJournalMagic) return LoadError::kBadMagic;
  if (version != kJournalVersion) return LoadError::kBadVersion;

  out = JournalFile{};
  out.seed = r.u64();
  out.threads = r.u32();
  const uint32_t frame_count = r.u32();
  if (r.overflowed()) return LoadError::kTruncated;
  if (frame_count > kMaxFrames || !count_fits(r, frame_count, kMinFrameBytes))
    return LoadError::kCorrupt;
  out.frames.resize(frame_count);
  for (auto& fj : out.frames) {
    fj.frame = r.u64();
    fj.world_t0_ns = r.i64();
    fj.world_dt_ns = r.i64();
    fj.digest = r.u64();
    const uint32_t rec_count = r.u32();
    if (r.overflowed()) return LoadError::kTruncated;
    if (rec_count > kMaxRecords || !count_fits(r, rec_count, kMinRecordBytes))
      return LoadError::kCorrupt;
    fj.records.resize(rec_count);
    for (auto& rec : fj.records) {
      if (!decode_record(r, rec))
        return r.overflowed() ? LoadError::kTruncated : LoadError::kCorrupt;
    }
    const uint32_t ed_count = r.u32();
    if (r.overflowed()) return LoadError::kTruncated;
    if (ed_count > kMaxRecords || !count_fits(r, ed_count, 8))
      return LoadError::kCorrupt;
    fj.entity_digests.resize(ed_count);
    for (auto& ed : fj.entity_digests) {
      ed.id = r.u32();
      ed.hash = r.u32();
    }
  }
  if (r.overflowed()) return LoadError::kTruncated;
  return LoadError::kNone;
}

}  // namespace qserv::recovery
