// The flight recorder: a ring-bounded per-frame journal of the ordered
// inputs — every mutation of the world with its serialization index: the
// frame's world step, each executed move (command + execution timestamp),
// and each lifecycle operation applied in the master window (spawn,
// disconnect, eviction, cross-shard handoff). State is a pure function of
// this ordered log, so replay applies exactly these records, in
// serialization-index order.
//
// Only the world-mutating inputs are journaled: whether a datagram was
// executed, coalesced, rate-limited or dropped depends on arrival timing
// the replay cannot (and need not) reproduce, and a datagram that did not
// mutate the world leaves no record.
//
// Writer model: each server thread stages records into its own vector
// while processing requests (single writer, no locks); the master drains
// all staging vectors in the between-frames window — the same barrier
// that orders every other cross-thread handoff — seals them into one
// FrameJournal with the frame's digest, and pushes it onto the ring.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/config.hpp"
#include "src/recovery/digest.hpp"
#include "src/vthread/time.hpp"

namespace qserv::recovery {

inline constexpr uint32_t kJournalMagic = 0x6c6e726a;  // "jrnl"
inline constexpr uint32_t kJournalVersion = 3;         // qserv-jrnl-v3

enum class RecordKind : uint8_t {
  kMoveExec = 1,      // move executed against the world
  kConnectSpawn = 2,  // player entity spawned in the master window
  kDisconnect = 3,    // graceful disconnect applied (entity removed)
  kEvict = 4,         // reaped/shed by the server (entity removed)
  // The frame's world-physics phase, with its (now, dt) arguments. Has a
  // serialization index like every other mutation, so replay interleaves
  // it correctly even with lifecycle ops applied between frames (the
  // sequential server's idle-path reap).
  kWorldPhase = 6,
  // Cross-shard session handoff (v2): the entity left for / arrived from
  // a neighboring engine in the master window. kHandoffIn carries the
  // full HandoffState so replay can re-materialize the player exactly.
  kHandoffOut = 7,
  kHandoffIn = 8,
};

// The gameplay-relevant player state a cross-shard handoff carries. This
// is deliberately a closed list: both the live adoption path and journal
// replay apply exactly these fields over a fresh spawn_player() (see
// adopt_player), so any field missing here keeps its spawn default on
// BOTH paths and per-frame digests stay bit-identical.
struct HandoffState {
  Vec3 origin;
  Vec3 velocity;
  float yaw_deg = 0.0f;
  int32_t health = 0;
  int32_t armor = 0;
  int32_t frags = 0;
  int32_t grenades = 0;
  uint8_t weapon = 0;
  int64_t next_attack_ns = 0;
  uint32_t deaths = 0;
};

// Captures the handoff payload from a live player entity.
HandoffState capture_handoff_state(const sim::Entity& e);
// Materializes a handed-off player in `w`: a fresh spawn_player() (which
// consumes the world RNG like any spawn), the HandoffState fields over
// it, then a relink at the carried origin. Live adoption
// (core::Server::adopt_session) and journal replay both call this, so
// the two cannot drift apart.
sim::Entity& adopt_player(sim::World& w, const std::string& name,
                          const HandoffState& hs);

const char* record_kind_name(RecordKind k);

struct JournalRecord {
  RecordKind kind = RecordKind::kMoveExec;
  uint8_t thread = 0;    // executing thread; owner for spawn/disconnect/
                         // evict; 0 for handoffs
  uint16_t port = 0;     // client port (0 for kWorldPhase)
  uint32_t entity = 0;   // player entity id (0 for kWorldPhase)
  uint64_t order = 0;    // serialization index
  int64_t t_ns = 0;      // timestamp the operation executed with
  int64_t dt_ns = 0;     // kWorldPhase: the frame's dt
  net::MoveCmd cmd;      // kMoveExec payload
  std::string name;      // kConnectSpawn / kHandoff* payload
  HandoffState hand;     // kHandoffIn payload
};

struct FrameJournal {
  uint64_t frame = 0;
  int64_t world_t0_ns = 0;  // world_phase(now, dt) arguments (informational;
  int64_t world_dt_ns = 0;  // replay drives off the kWorldPhase record)
  uint64_t digest = 0;      // live world digest at the frame boundary
  std::vector<JournalRecord> records;        // by serialization index
  std::vector<EntityDigest> entity_digests;  // optional per-entity hashes
};

class FlightRecorder {
 public:
  FlightRecorder(const Config& cfg, uint32_t threads, uint64_t seed);

  // Stages a record on `thread`'s private vector. Called during request
  // processing (one writer per thread) and from the master window.
  void record(uint32_t thread, JournalRecord rec);

  // Master window only: drains every staging vector, sorts the records
  // by serialization index, attaches the digest, pushes onto the ring,
  // trims to bounds.
  void seal_frame(uint64_t frame, vt::TimePoint t0, vt::Duration dt,
                  uint64_t digest, std::vector<EntityDigest> entity_digests);

  const std::deque<FrameJournal>& frames() const { return ring_; }
  uint64_t seed() const { return seed_; }
  uint64_t frames_sealed() const { return frames_sealed_; }
  uint64_t records_staged() const {
    return records_staged_.load(std::memory_order_relaxed);
  }

  // Serializes header (seed, thread count) + the ring to qserv-jrnl-v3.
  std::vector<uint8_t> encode() const;

 private:
  Config cfg_;
  uint64_t seed_;
  std::vector<std::vector<JournalRecord>> staging_;  // one per thread
  std::deque<FrameJournal> ring_;
  uint64_t frames_sealed_ = 0;
  // Workers stage concurrently; the count is a statistic, not an ordering
  // device, so relaxed increments suffice.
  std::atomic<uint64_t> records_staged_{0};
};

// Decode side (replay tool, tests). Hardened like the checkpoint loader.
struct JournalFile {
  uint64_t seed = 0;
  uint32_t threads = 1;
  std::vector<FrameJournal> frames;
};
std::vector<uint8_t> encode_journal(uint64_t seed, uint32_t threads,
                                    const std::deque<FrameJournal>& frames);
// Returns kNone on success; shares the checkpoint loader's LoadError.
LoadError decode_journal(const uint8_t* data, size_t n, JournalFile& out);
inline LoadError decode_journal(const std::vector<uint8_t>& buf,
                                JournalFile& out) {
  return decode_journal(buf.data(), buf.size(), out);
}

}  // namespace qserv::recovery
