// Byte-identity oracles for the reply path (DESIGN.md §15). The server
// builds snapshots by sweeping the SoA entity view and span-copying its
// canonical records; these are the straightforward per-entity versions —
// a gather over World::for_each_entity and a field-wise delta encoder —
// that the tests hold the server's path equal to.
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/sim/snapshot.hpp"

namespace qserv::sim {

// sweep_snapshot's per-entity oracle: the same visibility semantics and
// virtual charges, reading every entity through the world instead of the
// view (so it needs no refresh).
SnapshotStats build_snapshot(const World& world, const Entity& player,
                             uint32_t server_frame, uint32_t ack_sequence,
                             int64_t client_time_echo_ns,
                             const std::vector<net::GameEvent>& events,
                             net::Snapshot& out, bool thin_far = false);

// True if both views hold the same rows with byte-identical contents.
bool views_identical(const FrameView& a, const FrameView& b);

}  // namespace qserv::sim

namespace qserv::net {

// Delta compression oracle: encodes `now` against `baseline` (the entity
// list of the snapshot whose server_frame the client last acknowledged).
// Unchanged entities cost nothing; changed ones carry only the changed
// fields; entities present in the baseline but not in `now` go to a
// removal list. `stats_encoded_out`, if non-null, receives the number of
// entity records written.
std::vector<uint8_t> encode_delta(const Snapshot& now,
                                  const std::vector<EntityUpdate>& baseline,
                                  uint32_t baseline_frame,
                                  int* stats_encoded_out = nullptr);

// `events` as the server's event log holds them: wire records back to
// back, encoded at the flip, and the span the snapshot encoders take.
struct EventRecords {
  explicit EventRecords(const std::vector<GameEvent>& events);
  EventSpan span() const { return {wire.data().data(), count}; }
  ByteWriter wire;
  size_t count = 0;
};

// Decodes an event-log span with the protocol's snapshot event decoder.
std::vector<GameEvent> decode_span(EventSpan span);

}  // namespace qserv::net
