// Multi-shard engine configuration. One process hosts N independent
// Server engines ("shards"), each owning an X-axis slab of the map, each
// with its own port block, RNG stream, checkpoint / journal namespace and
// failure domain. The knobs here size the fleet and
// tune the supervisor's escalation policy; everything engine-level nests
// in `server`, which the manager clones per shard with the derived
// fields (base_port, seed, dump_dir) overridden.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/config.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/time.hpp"

namespace qserv::shard {

// Shard i's engine listens on server.base_port + i*kPortStride ..
// + (threads-1); the stride bounds how many worker ports one shard may
// claim.
inline constexpr uint16_t kPortStride = 64;

// Crash-loop circuit breaker window: crash_loop_max_rebuilds rebuilds
// inside it shed the shard for good.
inline constexpr vt::Duration kCrashLoopWindow = vt::seconds(10);

// A destination that keeps refusing adoption (registry full) hands the
// session back to its source after this many retries.
inline constexpr int kHandoffRetryBudget = 32;

// Fleet-level quarantine cap: at most kMaxConcurrentRestores rebuilds per
// supervisor tick (simultaneous failures recover staggered, never
// pausing the whole fleet at once), and when more than kQuarantineCap
// shards sit in quarantine together the lowest-priority one (fewest
// heartbeat clients, then highest index) is shed instead of restored.
inline constexpr int kMaxConcurrentRestores = 1;
inline constexpr int kQuarantineCap = 2;

struct Config {
  int shards = 4;

  // Cross-shard session handoff. A player whose entity crosses its home
  // slab's boundary by more than `boundary_margin` world units is
  // extracted in the master window and mailed to the neighbor owning its
  // position (hysteresis: the margin keeps a player oscillating on the
  // line from ping-ponging between engines every frame). Set the margin
  // wider than the map to pin sessions to their join shard (digest
  // isolation benches).
  float boundary_margin = 24.0f;

  // Supervisor cadence and escalation policy. A shard whose heartbeat
  // timestamp is older than `heartbeat_timeout` (it refreshes at every
  // frame end and every idle select() timeout, connected clients or not)
  // — or that reports invariant violations, or whose crash flag is
  // raised — is quarantined and restored from its last checkpoint +
  // journal tail. After `max_restores` restorations the shard is shed
  // instead: its sessions are handed to neighbor shards and its engine
  // stays down.
  vt::Duration supervise_interval = vt::millis(10);
  vt::Duration heartbeat_timeout = vt::millis(100);
  int max_restores = 2;

  // --- cascading-failure containment ---
  // Crash-loop circuit breaker: the first restore of a quarantine is
  // immediate, the k-th thereafter waits restore_backoff * 2^(k-1)
  // (clamped to restore_backoff_max) of virtual time. Independently of
  // the total budget above, crash_loop_max_rebuilds rebuilds inside
  // kCrashLoopWindow trips the breaker: the shard is shed for good
  // instead of being restored forever.
  vt::Duration restore_backoff = vt::millis(25);
  vt::Duration restore_backoff_max = vt::seconds(2);
  int crash_loop_max_rebuilds = 4;

  // Handoff containment. A shard's inbound mailbox holds at most
  // mailbox_capacity transfers (0 = unbounded); a post against a full
  // mailbox is an overflow shed — the session is dropped and counted,
  // never queued without bound toward a dead destination. Transfers
  // stranded for adopt_timeout in the mailbox of a quarantined/down
  // shard are returned to their source shard by the supervisor (0 =
  // never reclaim).
  size_t mailbox_capacity = 1024;
  vt::Duration adopt_timeout = vt::millis(500);

  // Per-engine template. Its base_port and seed are the fleet's: the
  // manager gives shard i base_port + i*kPortStride, seed
  // derive_seed(seed, streams::kShardBase + i) and recovery.dump_dir
  // suffix "/shard-<i>"; every other field applies as-is.
  core::ServerConfig server{};
};

}  // namespace qserv::shard
