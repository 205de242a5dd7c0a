// Deterministic replay: restore a checkpoint into a World and re-execute
// the journal's state-change records — world-phase ticks, move commands,
// lifecycle operations — in serialization-index order, checking the FNV
// world digest after every frame against the digest recorded live. The
// first mismatching frame (and, with per-entity digests, the first
// mismatching entity) is reported.
//
// This is the only module that knows how a journal record mutates a
// World: the offline verifier (replay_verify, qserv-replay) and the warm
// restore (core::Server::restore_from) both run replay_tail, so the replay
// contract has one implementation.
//
// This is pure re-execution over recorded inputs, not a re-run of the
// concurrent server: frame formation, thread interleaving and drop
// decisions are timing-dependent and are taken from the journal, while
// everything that mutates the world is re-derived. The determinism
// preconditions this rests on are documented in DESIGN.md §9.
#pragma once

#include <string>
#include <vector>

#include "src/recovery/checkpoint.hpp"
#include "src/recovery/journal.hpp"

namespace qserv::recovery {

struct ReplayResult {
  bool ok = false;       // ran to the end with every digest matching
  std::string error;     // setup failure (bad map, journal gap, ...)
  uint64_t start_frame = 0;
  uint64_t frames_checked = 0;
  uint64_t moves_applied = 0;
  uint64_t lifecycle_applied = 0;

  bool diverged = false;
  uint64_t divergent_frame = 0;
  uint32_t divergent_entity = 0;  // 0 = not attributed
  uint64_t want_digest = 0;       // recorded live
  uint64_t got_digest = 0;        // recomputed by replay
  std::string detail;

  std::string summary() const;
};

using JournalTail = std::vector<const FrameJournal*>;

// The journal frames following `ckpt_frame`, in order. The journal may
// reach further back than the checkpoint (ring longer than the checkpoint
// interval); earlier frames are skipped. Returns "" or, on a gap — the
// ring no longer containing ckpt_frame+1, or missing a later frame — a
// description of it.
std::string select_tail(const JournalFile& journal, uint64_t ckpt_frame,
                        JournalTail& tail);

// Re-executes `tail` over `world`, which holds the state the tail's first
// frame started from, checking every frame's digest against the one
// sealed live. Stops at the first divergence; per-entity digests are
// computed only then (and only if the recording carried them), to name
// the entity. `ok` means every frame matched, an empty tail included.
// Costs are charged to `world`'s platform, if any; a warm restore detaches
// it first.
ReplayResult replay_tail(sim::World& world, const JournalTail& tail);

// Advances the server half of `ckpt` over `tail`: sessions born and
// removed in the tail, each client's last executed move, remembered
// evictions and the serialization-index counter. Touches no world state;
// a warm restore installs the result once replay_tail succeeded. Clients
// born in the tail carry kSlotBornInTail and take a free slot.
inline constexpr uint16_t kSlotBornInTail = 0xffff;
void advance_registry(const JournalTail& tail, CheckpointData& ckpt);

// Offline verification: parses the checkpoint's map into a fresh world,
// checks the restored world against the checkpoint's own digest, then
// replays the journal frames following `ckpt.frame`. A gap, or no frame
// following the checkpoint, is a setup error, not a divergence.
ReplayResult replay_verify(const CheckpointData& ckpt,
                           const JournalFile& journal);

// Convenience for harnesses and tests: verifies a live server's latest
// checkpoint against its in-memory ring.
ReplayResult verify_recorded(const CheckpointManager& checkpoints,
                             const FlightRecorder& recorder);

}  // namespace qserv::recovery
