// Frame-aligned checkpoints: the full recoverable server state —
// world entities, areanode list order, free-id stack, RNG state, client
// registry with netchan sequences, and the serialized map — in a
// versioned binary format (`qserv-ckpt-v1`). Checkpoints are taken in the
// master's between-frames window, where no region locks are held and no
// worker touches shared state, so serialization needs no synchronization;
// the CheckpointManager double-buffers the encoded bytes so the latest
// complete image is always intact while the next one is being built.
//
// The decode side is hardened like net/protocol.cpp: every count is
// bounded against the remaining bytes before any resize, magic/version
// mismatches return typed errors, and a truncated or length-lying file
// can never crash the loader. Beyond the field-level bounds checks the
// image carries a whole-file content checksum (trailing FNV-1a 64 over
// every preceding byte): a torn write or flipped bit that would still
// parse "in bounds" (a position, an RNG word) is rejected as kChecksum
// before any section is interpreted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/entity.hpp"
#include "src/sim/world.hpp"

namespace qserv::recovery {

inline constexpr uint32_t kCheckpointMagic = 0x74706b63;  // "ckpt"
inline constexpr uint32_t kCheckpointVersion = 1;         // qserv-ckpt-v1

enum class LoadError : uint8_t {
  kNone = 0,
  kTruncated,       // ran out of bytes mid-field
  kBadMagic,        // not a checkpoint file
  kBadVersion,      // format version we don't speak
  kCorrupt,         // internal inconsistency (count exceeds bounds, ...)
  kReplayDiverged,  // journal-tail replay digest mismatch during restore
  kChecksum,        // content checksum mismatch (torn write, bit flip)
};
const char* load_error_name(LoadError e);

// One client slot as checkpointed: identity, liveness clocks and channel
// sequencing — enough for a warm-restarted server to continue the peer's
// packet stream or to re-adopt the peer when it reconnects by name.
struct ClientRecord {
  uint16_t slot = 0;
  uint16_t remote_port = 0;
  std::string name;
  uint32_t entity_id = 0;
  uint32_t owner_thread = 0;
  uint32_t last_seq = 0;
  int64_t last_move_time_ns = 0;
  int64_t last_heard_ns = 0;
  uint32_t chan_out_seq = 0;
  uint32_t chan_in_seq = 0;
  uint32_t chan_in_acked = 0;
};

struct CheckpointData {
  // Frame alignment and provenance.
  uint64_t frame = 0;
  int64_t captured_at_ns = 0;  // platform now() at capture
  uint64_t seed = 0;           // experiment root seed
  uint16_t base_port = 0;
  uint32_t threads = 1;
  uint32_t max_clients = 0;
  int32_t areanode_depth = 4;
  uint64_t next_order = 0;  // serialization-index counter
  uint64_t digest = 0;      // world digest at capture (restore cross-check)

  // World.
  std::array<uint64_t, 4> rng_state{};
  std::string map_text;  // GameMap::serialize(); makes replay self-contained
  uint32_t entity_storage = 0;          // total slots (active + free)
  std::vector<sim::Entity> entities;    // active only, id order
  std::vector<uint32_t> free_ids;       // stack, bottom to top
  // Object list of every non-empty areanode, in insertion order.
  std::vector<std::pair<int32_t, std::vector<uint32_t>>> node_objects;

  // Server.
  std::vector<ClientRecord> clients;
  std::vector<uint16_t> evicted_ports;  // remembered kEvicted answers
};

std::vector<uint8_t> encode_checkpoint(const CheckpointData& c);
LoadError decode_checkpoint(const uint8_t* data, size_t n,
                            CheckpointData& out);
inline LoadError decode_checkpoint(const std::vector<uint8_t>& buf,
                                   CheckpointData& out) {
  return decode_checkpoint(buf.data(), buf.size(), out);
}

// Rebuilds `w` (already constructed against the same map) from the world
// portion of `c`: entities, links in recorded list order, free-id stack
// and RNG state. Single-threaded; `w` must carry no traffic yet.
void restore_world(const CheckpointData& c, sim::World& w);

// Double-buffered store of encoded checkpoints. store() encodes into the
// buffer NOT currently published, then atomically publishes it, so
// latest() always sees a complete image. Tracks the serialize-pause
// budget the acceptance criteria bound.
//
// Swap-order audit (why a stall or crash mid-store can never tear the
// published image): store(N) writes buf_[next] while current_ still names
// the buffer store(N-1) published — the one every reader (latest(), a
// shard supervisor peeking at a quarantined engine) holds. Only after
// encode_checkpoint() fully returned does the atomic release-store of
// current_ flip readers over; a thread-stall fault injected anywhere
// inside store() leaves current_ pointing at the previous complete
// image. buf_[current] itself is not rewritten until two stores later,
// by which point current_ has moved off it.
class CheckpointManager {
 public:
  // Encodes and publishes; returns the encoded size. Host-clock encode
  // time is recorded as the "pause" the master window spent serializing.
  size_t store(const CheckpointData& c);

  bool has() const { return cur() >= 0; }
  const std::vector<uint8_t>& latest() const { return buf_[cur() > 0]; }
  uint64_t latest_frame() const { return frame_[cur() > 0]; }

  uint64_t count() const { return count_; }
  size_t last_bytes() const { return has() ? latest().size() : 0; }
  int64_t max_pause_ns() const { return max_pause_ns_; }

 private:
  int cur() const { return current_.load(std::memory_order_acquire); }

  std::vector<uint8_t> buf_[2];
  uint64_t frame_[2] = {0, 0};
  // -1 none, else 0/1. Atomic: a supervisor thread may read latest()
  // while the master window publishes the next image.
  std::atomic<int> current_{-1};
  uint64_t count_ = 0;
  int64_t max_pause_ns_ = 0;
};

}  // namespace qserv::recovery
