// Per-thread frame scratch: every container the receive, exec and reply
// phases would otherwise allocate per request / move / frame. Arenas are
// only ever touched by their owning thread, so no synchronization;
// capacity grows to the high-water mark and stays.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/lock_manager.hpp"
#include "src/net/netchan.hpp"
#include "src/sim/scratch.hpp"
#include "src/sim/snapshot.hpp"

namespace qserv::core {

struct FrameArena {
  // Receive phase: the datagram each request is drained into, so its
  // payload keeps its capacity across frames.
  net::Datagram datagram;
  // Exec phase: plan_request() output and the acquired region (the
  // region's leaf buffer is reused through it), plus the gather scratch
  // threaded through execute_move.
  std::vector<int> lock_requests;
  LockManager::Region region;
  sim::MoveScratch move_scratch;
  // Reply phase: the snapshot being built, the visible view rows the
  // sweep hands the encoder, the encoder's scratch, and the wire buffer
  // each reply is encoded into (with NetChannel::kHeaderReserve headroom)
  // and sent from in place.
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sim::EncodeScratch enc_scratch;
  net::ByteWriter wire;
};

}  // namespace qserv::core
