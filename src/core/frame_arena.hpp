// Per-thread frame scratch: every container the exec and reply phases
// would otherwise allocate per move / per frame. Arenas are only ever
// touched by their owning thread, so no synchronization; capacity grows
// to the high-water mark and stays.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/lock_manager.hpp"
#include "src/net/netchan.hpp"
#include "src/sim/scratch.hpp"
#include "src/sim/snapshot.hpp"

namespace qserv::core {

struct FrameArena {
  // Exec phase: plan_request() output and the acquired region (the
  // region's own leaf/request buffers are reused through it), plus the
  // gather scratch threaded through execute_move.
  std::vector<std::vector<int>> lock_sets;
  LockManager::Region region;
  sim::MoveScratch move_scratch;
  // Reply phase: per-client event assembly, the snapshot being built,
  // the visible view rows the sweep hands the encoder, the encoder's
  // scratch, and the wire buffer each reply is encoded into (with
  // NetChannel::kHeaderReserve headroom) and sent from in place.
  std::vector<net::GameEvent> events;
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sim::EncodeScratch enc_scratch;
  net::ByteWriter wire;
};

}  // namespace qserv::core
