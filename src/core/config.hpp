// Server configuration: thread count, locking policy, player assignment,
// and the extensions the paper leaves as future work (request batching,
// region-based assignment).
#pragma once

#include <cstdint>

#include "src/recovery/config.hpp"
#include "src/resilience/config.hpp"
#include "src/sim/cost_model.hpp"
#include "src/vthread/time.hpp"

namespace qserv::core {

// Game-object synchronization policy for the request-processing phase.
enum class LockPolicy : uint8_t {
  // No region locks at all. Only valid single-threaded (the sequential
  // server, or a 1-thread parallel server for overhead baselines).
  kNone,
  // §3.3/§4.2: short-range moves lock the leaves under the move's
  // bounding box; long-range interactions conservatively lock the entire
  // map (every leaf).
  kConservative,
  // §4.3: game-specific knowledge — grenades (type 1) lock an *expanded*
  // bounding box covering their request-time flight; hitscans (type 2)
  // lock a *directional* bounding box from the shooter to the world edge.
  kOptimized,
};

const char* lock_policy_name(LockPolicy p);

// How players are assigned to server threads.
enum class AssignPolicy : uint8_t {
  kBlock,   // §3.1: static block assignment by join order
  kRegion,  // extension (§5.1 future work): assign by spawn-region so
            // players sharing a map region share a thread
};

const char* assign_policy_name(AssignPolicy p);

struct ServerConfig {
  int threads = 1;  // ignored by the sequential server
  LockPolicy lock_policy = LockPolicy::kConservative;
  AssignPolicy assign_policy = AssignPolicy::kBlock;

  // Extension (§5.2 future work): after winning master election, the
  // master sleeps this long before starting the frame so that requests
  // arriving slightly out of sync batch into one frame.
  vt::Duration batch_window{};

  // Extension (§5.1 future work): with AssignPolicy::kRegion, the master
  // periodically re-partitions players across threads by their current
  // map region (every `reassign_interval`; zero = assign at connect time
  // only). Clients learn their new thread's port through the snapshot's
  // assigned_port field.
  vt::Duration reassign_interval{};

  // Delta-compress snapshots against the last client-acknowledged one
  // (QuakeWorld-style). Falls back to full snapshots whenever no
  // acknowledged baseline is available, so it is loss-safe.
  bool delta_snapshots = false;

  // Client liveness (QuakeWorld's sv_timeout): a client heard from
  // nothing for this long is reaped between frames — its entity leaves
  // the world and areanode tree, its slot frees, and it is sent an
  // explicit kEvicted reject. Zero disables reaping (the seed behavior:
  // silent clients leak their slot forever).
  vt::Duration client_timeout{};

  // Maximum (frame id, moves) entries each thread's §5.2 frame trace may
  // hold once enable_frame_trace() is on. Entries past the cap are counted
  // in ThreadStats::frame_trace_dropped instead of growing the vector —
  // a long soak with tracing left on must not consume memory unboundedly.
  int frame_trace_limit = 65536;

  // Debug hook: after each frame the master cross-checks client registry
  // <-> world entities <-> areanode membership (core/invariant_checker).
  // Off by default — it is O(world) per frame and charges no modelled
  // compute, so it must not run during measured experiments.
  bool check_invariants = false;

  int areanode_depth = 4;  // 31 nodes / 16 leaves by default
  uint16_t base_port = 27500;  // thread i receives on base_port + i
  int max_clients = 512;
  uint64_t seed = 1;

  // Overload protection & self-healing (src/resilience/): receive-phase
  // backpressure, connect-time admission control, the degradation
  // governor, and the worker watchdog. All off by default.
  resilience::Config resilience{};

  // Crash recovery (src/recovery/): frame-aligned checkpoints, the
  // flight-recorder journal, black-box dumps and warm restart. Off by
  // default — recording costs host time (digest + journal) per frame.
  recovery::Config recovery{};

  sim::CostModel costs{};
};

}  // namespace qserv::core
