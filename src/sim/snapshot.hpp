// Reply-phase snapshot construction (DESIGN.md §15): interest management
// ("the server determines which entities are of interest to each client
// and sends out information only for those") as a sweep over the world's
// SoA entity view, and encoders that assemble each client's wire message
// by copying spans of the view's canonical per-entity records. Read-only
// with respect to global server state, as §3.3 requires of the reply
// phase.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/bytestream.hpp"
#include "src/net/protocol.hpp"
#include "src/sim/world.hpp"

namespace qserv::sim {

// An entity is of interest if it is within this range of the client...
inline constexpr float kInterestRange = 800.0f;
// ...and, for players, also line-of-sight visible (or close enough that
// sound would carry).
inline constexpr float kAlwaysAudibleRange = 250.0f;

struct SnapshotStats {
  int interest_checks = 0;
  int los_traces = 0;
  int los_brushes = 0;
  int visible_entities = 0;
};

// Fills `out` (player private state and visible entities in id order)
// for `player`, and sets `rows` to the visible entities' view rows — the
// encoders' input. The reply's `event_count` broadcast events are not
// copied: the encoders take them as a wire span. `out.events` is left
// as it is. Reads world.view(), which must have been refreshed since the
// last mutation.
//
// Charges the paper-era reply costs in the order the per-entity gather
// always has: per_pvs_check per PVS lookup (or per_los_trace_brush per
// traced brush on maps without PVS) inside the sweep, then one
// per_interest_check / per_visible_entity / per_event lump.
//
// `thin_far` is the degradation governor's first rung: entities beyond
// half the interest range are refreshed only every other snapshot (by
// (entity id + frame) parity, so each far entity still updates at half
// rate rather than some never appearing). Near entities — the ones the
// client is interacting with — are never thinned.
SnapshotStats sweep_snapshot(const World& world, const Entity& player,
                             uint32_t server_frame, uint32_t ack_sequence,
                             int64_t client_time_echo_ns,
                             size_t event_count, net::Snapshot& out,
                             std::vector<uint32_t>& rows,
                             bool thin_far = false);

// Reusable per-thread scratch for write_delta_snapshot; all vectors keep
// capacity across frames so steady-state encoding allocates nothing.
struct EncodeScratch {
  net::ByteWriter body;
  // (id, baseline index), sorted by id.
  std::vector<std::pair<uint32_t, uint32_t>> base_ids;
  std::vector<uint8_t> in_rows;  // per baseline entry: still visible
};

// Full snapshot message for `snap` whose entities are exactly the view
// rows `rows` (as sweep_snapshot leaves them), carrying `events`. The
// entity section is a span copy of the canonical records, the event
// section one copy of the encoded events.
void write_full_snapshot(const net::Snapshot& snap, const FrameView& view,
                         const std::vector<uint32_t>& rows,
                         net::EventSpan events, net::ByteWriter& w);

// Delta snapshot message against `baseline` (the entity list of the
// client-acknowledged snapshot `baseline_frame`): unchanged entities cost
// nothing, changed ones carry only the changed fields, entities missing
// from `rows` go to a removal list in baseline order. `events` as in
// write_full_snapshot. Returns the number of entity records written.
int write_delta_snapshot(const net::Snapshot& snap, const FrameView& view,
                         const std::vector<uint32_t>& rows,
                         const std::vector<net::EntityUpdate>& baseline,
                         uint32_t baseline_frame, net::EventSpan events,
                         EncodeScratch& scratch, net::ByteWriter& w);

}  // namespace qserv::sim
