// Multi-shard engine suite: router geometry, cross-shard session handoff
// under a live fleet, and the supervisor's failure state machine — crash
// detection, quarantine, checkpoint+journal-tail restoration with clients
// resuming in place, restore-budget exhaustion shedding sessions to
// neighbor shards, and the no-checkpoint rebuild path where clients come
// back via silence reconnect.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/shard_experiment.hpp"
#include "src/obs/fleet.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"
#include "src/shard/manager.hpp"
#include "src/shard/router.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/aabb.hpp"
#include "src/util/rng.hpp"

namespace qserv {
namespace {

// --- router geometry -----------------------------------------------------

Aabb test_bounds() {
  Aabb b;
  b.mins = {-1000.0f, -500.0f, 0.0f};
  b.maxs = {1000.0f, 500.0f, 256.0f};
  return b;
}

TEST(ShardRouter, PartitionsXAxisIntoEqualSlabs) {
  shard::ShardRouter r(test_bounds(), 4, 0.0f);
  EXPECT_EQ(r.shards(), 4);
  EXPECT_FLOAT_EQ(r.slab_lo(0), -1000.0f);
  EXPECT_FLOAT_EQ(r.slab_hi(0), -500.0f);
  EXPECT_FLOAT_EQ(r.slab_lo(3), 500.0f);
  EXPECT_FLOAT_EQ(r.slab_hi(3), 1000.0f);
  EXPECT_EQ(r.shard_for({-999.0f, 0.0f, 0.0f}), 0);
  EXPECT_EQ(r.shard_for({-499.0f, 400.0f, 10.0f}), 1);
  EXPECT_EQ(r.shard_for({1.0f, 0.0f, 0.0f}), 2);
  EXPECT_EQ(r.shard_for({999.0f, 0.0f, 0.0f}), 3);
}

TEST(ShardRouter, ClampsPositionsOutsideTheMap) {
  shard::ShardRouter r(test_bounds(), 4, 0.0f);
  EXPECT_EQ(r.shard_for({-5000.0f, 0.0f, 0.0f}), 0);
  EXPECT_EQ(r.shard_for({5000.0f, 0.0f, 0.0f}), 3);
}

TEST(ShardRouter, HomeHysteresisHoldsResidentsNearTheBoundary) {
  shard::ShardRouter r(test_bounds(), 4, 24.0f);
  // x = -490 is inside shard 1's slab, 10 units past shard 0's edge:
  // a shard-0 resident stays home, a fresh join goes to shard 1.
  EXPECT_EQ(r.home_for(0, {-490.0f, 0.0f, 0.0f}), 0);
  EXPECT_EQ(r.shard_for({-490.0f, 0.0f, 0.0f}), 1);
  // Past the margin the resident is reassigned.
  EXPECT_EQ(r.home_for(0, {-470.0f, 0.0f, 0.0f}), 1);
  // An unknown current shard falls back to pure geometry.
  EXPECT_EQ(r.home_for(-1, {-490.0f, 0.0f, 0.0f}), 1);
}

// --- per-shard engine derivation ------------------------------------------

// The fleet's port block and root seed are the engine template's own:
// shard i listens on server.base_port + i*kPortStride .. + (threads-1)
// and is seeded derive_seed(server.seed, kShardBase + i). Non-default
// template values make a manager reading any other field fail here.
TEST(ShardManager, ShardsDeriveTheirPortsAndSeedsFromTheEngineTemplate) {
  vt::SimPlatform platform;
  net::VirtualNetwork net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  shard::Config fleet;
  fleet.shards = 3;
  fleet.server.threads = 2;
  fleet.server.base_port = 31000;
  fleet.server.seed = 77;
  shard::ShardManager mgr(platform, net, map, fleet);

  for (int i = 0; i < fleet.shards; ++i) {
    const core::ServerConfig& sc = mgr.shard(i).server()->config();
    const uint16_t base =
        static_cast<uint16_t>(31000 + i * shard::kPortStride);
    EXPECT_EQ(sc.base_port, base);
    EXPECT_EQ(sc.seed, derive_seed(77, streams::kShardBase +
                                           static_cast<uint64_t>(i)));
    for (int t = 0; t < fleet.server.threads; ++t) {
      net::OpenError err = net::OpenError::kNone;
      EXPECT_EQ(net.try_open(static_cast<uint16_t>(base + t), &err), nullptr);
      EXPECT_EQ(err, net::OpenError::kPortInUse);
    }
  }
}

// --- fleet soaks ---------------------------------------------------------

harness::ShardExperimentConfig base_cfg(int shards, int players) {
  harness::ShardExperimentConfig cfg;
  cfg.fleet.shards = shards;
  cfg.fleet.server.threads = 2;
  cfg.fleet.server.check_invariants = true;
  cfg.fleet.server.recovery.enabled = true;
  cfg.fleet.server.recovery.checkpoint_interval = 32;
  cfg.players = players;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(4);
  cfg.seed = 11;
  return cfg;
}

TEST(ShardFleet, HandoffsFlowAndNoClientIsLost) {
  auto cfg = base_cfg(2, 24);
  // Tight margin: roaming bots cross the slab boundary and migrate.
  cfg.fleet.boundary_margin = 8.0f;
  const auto r = harness::run_shard_experiment(cfg);

  EXPECT_GT(r.handoffs_out, 0u);
  // Transfers still sitting in a mailbox at shutdown are bounded by the
  // fleet size; everything else must have been adopted.
  EXPECT_GE(r.handoffs_in + 2, r.handoffs_out);
  EXPECT_EQ(r.connected, cfg.players);
  // The counters reset at the warmup boundary, so a transfer extracted
  // during warmup but adopted during measurement reads as in > out —
  // clamp the in-flight estimate at zero.
  const int in_flight = r.handoffs_out > r.handoffs_in
                            ? static_cast<int>(r.handoffs_out -
                                               r.handoffs_in)
                            : 0;
  EXPECT_GE(r.shard_connected + in_flight, cfg.players);
  for (const auto& ps : r.shards) {
    EXPECT_FALSE(ps.down);
    EXPECT_EQ(ps.state, shard::ShardState::kHealthy);
    EXPECT_EQ(ps.invariant_violations, 0u);
    EXPECT_GT(ps.frames, 0u);
  }
}

TEST(ShardFleet, CrashedShardIsRestoredWithZeroClientLoss) {
  auto cfg = base_cfg(4, 32);
  // Pin sessions to their join shard so the crash is the only variable.
  cfg.fleet.boundary_margin = 1e9f;
  // Backstop only: in-place resume must beat this by orders of magnitude.
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(1); });
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& crashed = r.shards[1];
  EXPECT_EQ(crashed.escalations, 1u);
  EXPECT_EQ(crashed.restores, 1);
  EXPECT_EQ(crashed.state, shard::ShardState::kHealthy);
  EXPECT_FALSE(crashed.down);
  EXPECT_EQ(crashed.last_error, recovery::LoadError::kNone);
  // Sanity bound only: the pause is host-clock, so a parallel ctest run
  // on a loaded machine inflates it. bench_shard_failover enforces the
  // real 12.5 ms budget in a dedicated sequential smoke step.
  EXPECT_LT(crashed.last_pause_ms, 1000.0);
  // Every client survived, and none needed the reconnect backstop: the
  // restored engine resumed them in place.
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shard_connected, cfg.players);
  EXPECT_EQ(r.silence_reconnects, 0u);
  for (int i = 0; i < 4; ++i) {
    if (i == 1) continue;
    EXPECT_EQ(r.shards[static_cast<size_t>(i)].escalations, 0u) << i;
  }
}

TEST(ShardFleet, RestoreBudgetExhaustionShedsSessionsToNeighbors) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.fleet.max_restores = 0;  // first failure goes straight to shedding
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(0); });
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& dead = r.shards[0];
  EXPECT_EQ(dead.state, shard::ShardState::kShed);
  EXPECT_TRUE(dead.down);
  EXPECT_GT(dead.shed_sessions, 0u);
  // All of shard 0's sessions were adopted by shard 1 and every client
  // kept its session (redirected, not reconnected).
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shard_connected, cfg.players);
  EXPECT_EQ(r.shards[1].state, shard::ShardState::kHealthy);
  EXPECT_GE(r.shards[1].handoffs_in, dead.shed_sessions);
}

// --- cascading-failure containment ---------------------------------------

// Re-crash the shard the moment each restore completes. The crash-loop
// circuit breaker must cut it off after crash_loop_max_rebuilds and shed
// its sessions — and the shed redirect machinery must keep every client
// connected without falling back to silence reconnects.
TEST(ShardFleet, CircuitBreakerShedsACrashLoopingShard) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.fleet.max_restores = 10;  // the breaker, not the budget, decides
  cfg.fleet.crash_loop_max_rebuilds = 3;
  cfg.fleet.restore_backoff = vt::millis(1);
  cfg.fleet.restore_backoff_max = vt::millis(4);
  cfg.client_silence_timeout = vt::seconds(2);
  const int64_t end_ns = (cfg.warmup + cfg.measure).ns;
  // The poll re-arms through these locals, which outlive the run.
  std::function<void()> tick;
  int seen = 0;
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    vt::Platform* pp = &p;
    shard::ShardManager* m = &mgr;
    pp->call_after(vt::seconds_d(1.5), [m] { m->crash_shard(1); });
    // Poll: every restore that completes is followed by another crash.
    tick = [pp, m, &tick, &seen, end_ns] {
      shard::Shard& s = m->shard(1);
      if (s.down() || pp->now().ns >= end_ns) return;
      if (s.restores() > seen && !s.crash_flagged()) {
        seen = s.restores();
        m->crash_shard(1);
      }
      pp->call_after(vt::millis(5), tick);
    };
    pp->call_after(vt::seconds_d(1.5), tick);
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& dead = r.shards[1];
  EXPECT_EQ(dead.state, shard::ShardState::kShed);
  EXPECT_TRUE(dead.down);
  EXPECT_TRUE(dead.breaker_tripped);
  EXPECT_EQ(dead.shed_reason, shard::ShedReason::kCrashLoop);
  EXPECT_EQ(dead.restores, cfg.fleet.crash_loop_max_rebuilds);
  EXPECT_GT(dead.shed_sessions, 0u);
  // Shed sessions were adopted by shard 0 and redirected in place: no
  // client needed the silence backstop, none were lost.
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shard_connected, cfg.players);
  EXPECT_EQ(r.silence_reconnects, 0u);
  EXPECT_EQ(r.shards[0].state, shard::ShardState::kHealthy);
}

// A transfer parked in a quarantined shard's mailbox past adopt_timeout
// must be returned to its source shard by the supervisor, not stranded
// until the destination finally restores. The first restore of a
// quarantine is immediate by design, so the long unattended-mailbox
// window only opens on a RE-crash: the second rebuild waits out the full
// restore_backoff, and everything shard 0 mails across the boundary in
// that gap must bounce back. A tracer-less fleet plane rides along, so
// the return path's observer callback runs without a trace track.
TEST(ShardFleet, AdoptTimeoutReturnsStrandedHandoffsToSource) {
  auto cfg = base_cfg(2, 24);
  cfg.fleet.boundary_margin = 8.0f;  // roaming: handoffs flow both ways
  cfg.fleet.max_restores = 5;
  cfg.fleet.restore_backoff = vt::millis(1500);
  cfg.fleet.restore_backoff_max = vt::millis(1500);
  cfg.fleet.adopt_timeout = vt::millis(100);
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.measure = vt::seconds(6);  // room for two crashes + the 1.5 s gap
  // The poll re-arms through this local, which outlives the run.
  std::function<void()> tick;
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    vt::Platform* pp = &p;
    shard::ShardManager* m = &mgr;
    const int64_t give_up_ns = (cfg.warmup + vt::seconds(3)).ns;
    pp->call_after(cfg.warmup + vt::millis(500),
                   [m] { m->crash_shard(1); });
    // Re-crash the moment the first (immediate) restore completes.
    tick = [pp, m, &tick, give_up_ns] {
      if (pp->now().ns >= give_up_ns) return;
      shard::Shard& s = m->shard(1);
      if (s.restores() >= 1 && !s.crash_flagged() && !s.down()) {
        m->crash_shard(1);
        return;
      }
      pp->call_after(vt::millis(2), tick);
    };
    pp->call_after(cfg.warmup + vt::millis(500), tick);
  };
  obs::FleetObs fleet(nullptr);
  cfg.fleet_obs = &fleet;
  const auto r = harness::run_shard_experiment(cfg);

  // Sessions that roamed toward the dead shard bounced back to shard 0
  // (which kept serving them) instead of stranding in the mailbox.
  EXPECT_GE(r.handoffs_returned, 1u);
  EXPECT_GE(r.shards[1].backoff_waits, 1u);
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shards[1].restores, 2);
  EXPECT_EQ(r.shards[1].state, shard::ShardState::kHealthy);
  EXPECT_EQ(r.shards[0].state, shard::ShardState::kHealthy);
}

// A transfer a full destination refused waits in that shard's retry
// queue. The queue is shard state, not engine state: a crash keeps it for
// the rebuilt generation, and a shed hands it to the neighbors with the
// sessions recovered from the images. Both shards start full, so
// sessions roaming across the boundary meet a refusal; the fault strikes
// shard 1 while its queue holds one. With no reconnect backstop a
// dropped session stays gone while its client still holds it, so every
// client session must be accounted for at the end: adopted by a live
// shard, queued in a mailbox or a retry queue, or counted as an overflow
// shed. (Joins that lost the race for a slot to a roaming session were
// refused and hold no session.)
void expect_retry_queue_survives_fault(bool shed) {
  auto cfg = base_cfg(2, 24);
  cfg.fleet.server.max_clients = 12;  // each shard full at join
  cfg.fleet.boundary_margin = 8.0f;  // roaming: crossings meet a full shard
  cfg.fleet.max_restores = shed ? 0 : 2;
  size_t depth_at_fault = 0;
  int accounted = -1;
  std::function<void()> poll;  // re-arms through this local
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    const int64_t give_up_ns = (cfg.warmup + cfg.measure).ns;
    poll = [&p, &mgr, &poll, &depth_at_fault, give_up_ns] {
      if (mgr.shard(1).retry_depth() > 0) {
        depth_at_fault = mgr.shard(1).retry_depth();
        mgr.crash_shard(1);
        return;
      }
      if (p.now().ns < give_up_ns) p.call_after(vt::millis(1), poll);
    };
    p.call_after(cfg.warmup, poll);
    // After the harness stops the fleet: tally where every session is.
    p.call_after(cfg.warmup + cfg.measure + vt::millis(500), [&] {
      accounted = static_cast<int>(mgr.overflow_sheds());
      for (int i = 0; i < mgr.shards(); ++i) {
        shard::Shard& sh = mgr.shard(i);
        accounted += static_cast<int>(sh.mailbox().size() + sh.retry_depth());
        if (!sh.down()) accounted += sh.server()->connected_clients();
      }
    });
  };
  const auto r = harness::run_shard_experiment(cfg);

  ASSERT_GT(depth_at_fault, 0u) << "no adoption was refused before the end";
  const auto& hit = r.shards[1];
  if (shed) {
    EXPECT_EQ(hit.state, shard::ShardState::kShed);
    EXPECT_GE(hit.shed_sessions, depth_at_fault);
  } else {
    EXPECT_EQ(hit.restores, 1);
    EXPECT_EQ(hit.state, shard::ShardState::kHealthy);
  }
  EXPECT_EQ(accounted, r.connected);
}

TEST(ShardFleet, RetryQueueSurvivesACrashRebuild) {
  expect_retry_queue_survives_fault(/*shed=*/false);
}

TEST(ShardFleet, RetryQueueIsHandedOnWhenAShardIsShed) {
  expect_retry_queue_survives_fault(/*shed=*/true);
}

// A bounded mailbox must refuse — and count — posts beyond its capacity
// instead of queueing without limit toward a destination that is not
// draining; the dropped clients recover through the silence backstop.
// A tracer-less fleet plane rides along, so the overflow path's observer
// callback runs without a trace track.
TEST(ShardFleet, MailboxOverflowShedsAreBoundedAndCounted) {
  auto cfg = base_cfg(2, 24);
  cfg.fleet.boundary_margin = 8.0f;
  cfg.fleet.mailbox_capacity = 1;
  cfg.fleet.adopt_timeout = vt::Duration{0};  // never reclaim: force overflow
  cfg.fleet.max_restores = 5;
  cfg.fleet.restore_backoff = vt::millis(1000);
  cfg.fleet.restore_backoff_max = vt::millis(1000);
  cfg.client_silence_timeout = vt::millis(600);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::millis(500),
                 [&mgr] { mgr.crash_shard(1); });
  };
  obs::FleetObs fleet(nullptr);
  cfg.fleet_obs = &fleet;
  const auto r = harness::run_shard_experiment(cfg);

  EXPECT_GE(r.overflow_sheds, 1u);
  EXPECT_GE(r.silence_reconnects, 1u);  // dropped sessions rejoined
  EXPECT_EQ(r.connected, cfg.players);  // nobody stays lost
  EXPECT_EQ(r.shards[1].restores, 1);
  EXPECT_EQ(r.shards[1].state, shard::ShardState::kHealthy);
}

// Three of four shards down at once blows the quarantine cap (2): the
// lowest-priority quarantined shard — fewest heartbeat clients, ties to
// the highest index — is shed instead of restored, and the remaining two
// recover staggered, one rebuild per supervisor tick.
TEST(ShardFleet, QuarantineCapShedsLowestPriorityShard) {
  auto cfg = base_cfg(4, 32);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::millis(500), [&mgr] {
      mgr.crash_shard(1);
      mgr.crash_shard(2);
      mgr.crash_shard(3);
    });
  };
  const auto r = harness::run_shard_experiment(cfg);

  // Equal client counts: the tie-break sheds the highest index.
  EXPECT_EQ(r.shards[3].state, shard::ShardState::kShed);
  EXPECT_EQ(r.shards[3].shed_reason, shard::ShedReason::kQuarantineCap);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_EQ(r.shards[static_cast<size_t>(i)].restores, 1) << i;
    EXPECT_EQ(r.shards[static_cast<size_t>(i)].state,
              shard::ShardState::kHealthy)
        << i;
  }
  EXPECT_EQ(r.shards[0].escalations, 0u);
  EXPECT_EQ(r.connected, cfg.players);
}

// A corrupted checkpoint image must walk the whole fallback chain:
// tail-replay is never attempted (the content checksum rejects the image
// up front), checkpoint-only has nothing better, so the shard comes back
// on a fresh rebuild and its clients rejoin via the silence backstop.
TEST(ShardFleet, CorruptCheckpointFallsBackToFreshRebuild) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.client_silence_timeout = vt::millis(500);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] {
      mgr.shard(1).corrupt_next_capture();
      mgr.crash_shard(1);
    });
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& crashed = r.shards[1];
  EXPECT_EQ(crashed.restores, 1);
  EXPECT_EQ(crashed.state, shard::ShardState::kHealthy);
  EXPECT_EQ(crashed.last_mode, shard::RestoreMode::kFreshRebuild);
  EXPECT_EQ(crashed.last_error, recovery::LoadError::kChecksum);
  EXPECT_GT(r.silence_reconnects, 0u);
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shard_connected, cfg.players);
}

// A journal ring shorter than the checkpoint interval loses the frames
// right after the checkpoint, so the tail has a gap. restore_from refuses
// the gap before touching the engine, and the supervisor must fall back
// to the checkpoint alone on that same engine rather than discard a good
// checkpoint for a fresh rebuild.
TEST(ShardFleet, TailGapFallsBackToCheckpointOnly) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.fleet.server.recovery.journal_frames = 4;  // < checkpoint_interval
  cfg.client_silence_timeout = vt::millis(500);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(1); });
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& crashed = r.shards[1];
  EXPECT_EQ(crashed.restores, 1);
  EXPECT_EQ(crashed.state, shard::ShardState::kHealthy);
  EXPECT_EQ(crashed.last_mode, shard::RestoreMode::kCheckpointOnly);
  EXPECT_EQ(crashed.last_error, recovery::LoadError::kCorrupt);
  EXPECT_EQ(crashed.last_stats.tail_frames, 0u);
  // The checkpoint's sessions resume in place; only a fresh rebuild
  // would send its clients through the silence backstop.
  EXPECT_EQ(r.silence_reconnects, 0u);
  EXPECT_EQ(r.connected, cfg.players);
}

// A shard whose clients are all cut off runs no frames, but its workers
// still wake from every idle select() timeout and beat. A partition
// several heartbeat timeouts long must not read as a wedged engine.
// client_timeout stays off, so no maintenance frame beats for it.
TEST(ShardFleet, IdleShardKeepsBeatingThroughAClientPartition) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  ASSERT_EQ(cfg.fleet.server.client_timeout.ns, 0);
  const vt::Duration cut{4 * cfg.fleet.heartbeat_timeout.ns};
  const uint16_t lo = static_cast<uint16_t>(cfg.fleet.server.base_port +
                                            shard::kPortStride);
  const uint16_t hi =
      static_cast<uint16_t>(lo + cfg.fleet.server.threads - 1);
  cfg.configure_network = [&](net::VirtualNetwork& net) {
    // Every client port (the driver allocates from 40000 up) from shard
    // 1's engine ports.
    net.faults().add_partition(
        vt::TimePoint::zero() + cfg.warmup + vt::millis(500), cut, 40000,
        65535, lo, hi);
  };
  const auto r = harness::run_shard_experiment(cfg);

  EXPECT_EQ(r.shards[1].state, shard::ShardState::kHealthy);
  EXPECT_EQ(r.shards[1].escalations, 0u);
  EXPECT_EQ(r.shards[1].restores, 0);
  EXPECT_EQ(r.connected, cfg.players);
}

TEST(ShardFleet, CrashWithoutCheckpointRebuildsEmptyAndClientsRejoin) {
  auto cfg = base_cfg(2, 12);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.fleet.server.recovery.enabled = false;  // nothing to restore from
  cfg.client_silence_timeout = vt::millis(400);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(0); });
  };
  const auto r = harness::run_shard_experiment(cfg);

  const auto& crashed = r.shards[0];
  EXPECT_EQ(crashed.restores, 1);
  EXPECT_EQ(crashed.state, shard::ShardState::kHealthy);
  EXPECT_EQ(crashed.last_stats.tail_frames, 0u);
  // Sessions could not be restored, so clients noticed the silence and
  // rejoined the empty engine.
  EXPECT_GT(r.silence_reconnects, 0u);
  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_EQ(r.shard_connected, cfg.players);
}

TEST(ShardFleet, UnaffectedShardsReplayBitIdenticallyAcrossRuns) {
  auto cfg = base_cfg(3, 18);
  cfg.fleet.boundary_margin = 1e9f;
  const auto baseline = harness::run_shard_experiment(cfg);

  auto crash_cfg = cfg;
  crash_cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(2); });
  };
  const auto crashed = harness::run_shard_experiment(crash_cfg);
  ASSERT_EQ(crashed.shards[2].restores, 1);

  // Shards 0 and 1 never saw the failure: their per-frame journal digest
  // streams must match the uncrashed run bit for bit.
  for (int i = 0; i < 2; ++i) {
    const auto& a = baseline.shards[static_cast<size_t>(i)].journal_digests;
    const auto& b = crashed.shards[static_cast<size_t>(i)].journal_digests;
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size()) << "shard " << i;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].first, b[k].first) << "shard " << i << " idx " << k;
      ASSERT_EQ(a[k].second, b[k].second)
          << "shard " << i << " frame " << a[k].first;
    }
  }
}

// --- fleet observability plane -------------------------------------------

// Chrome-trace DOM helpers: event list, and the name each (pid,tid) row
// was given through thread_name metadata.
struct ParsedTrace {
  obs::JsonValue doc;
  const obs::JsonValue* events = nullptr;

  explicit ParsedTrace(const std::string& json) {
    std::string err;
    EXPECT_TRUE(obs::json_parse(json, doc, &err)) << err;
    events = doc.find("traceEvents");
  }
  std::string row_name(double pid, double tid) const {
    for (const obs::JsonValue& e : events->items)
      if (e.find("ph")->string_or("") == "M" &&
          e.find("name")->string_or("") == "thread_name" &&
          e.find("pid")->number_or(-1) == pid &&
          e.find("tid")->number_or(-1) == tid)
        return e.at_path("args.name")->string_or("");
    return {};
  }
  int count_instants_on(const std::string& row,
                        const std::string& name) const {
    int n = 0;
    for (const obs::JsonValue& e : events->items)
      if (e.find("ph")->string_or("") == "i" &&
          e.find("name")->string_or("") == name &&
          row_name(e.find("pid")->number_or(-1),
                   e.find("tid")->number_or(-1)) == row)
        ++n;
    return n;
  }
};

TEST(ShardFleetObs, HandoffFlowsStitchAcrossShardProcesses) {
  auto cfg = base_cfg(2, 24);
  cfg.fleet.boundary_margin = 8.0f;  // migrations on
  obs::Tracer tracer;
  obs::FleetObs::Config ocfg;
  ocfg.expected_clients = cfg.players;
  obs::FleetObs fleet(&tracer, ocfg);
  cfg.fleet_obs = &fleet;
  const auto r = harness::run_shard_experiment(cfg);

  ASSERT_GT(r.handoff_flows, 0u);
  EXPECT_GE(r.handoff_flows, r.handoffs_out);
  // Every adopted handoff fed the fleet latency histogram. The plane
  // counts from fleet start while the engines' counters reset at the
  // warmup boundary, so the histogram covers at least the measured
  // adoptions and at most the flows ever issued.
  const auto samples = fleet.fleet_metrics().snapshot();
  const obs::MetricSample* lat = nullptr;
  for (const auto& s : samples)
    if (s.name == "fleet.handoff.latency_ms") lat = &s;
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->count, r.handoffs_in);
  EXPECT_LE(lat->count, r.handoff_flows);

  // In the export, each stitched flow is an "s" on the source shard's
  // process and an "f" on the destination's — different pids.
  ParsedTrace trace(tracer.export_chrome_trace());
  ASSERT_NE(trace.events, nullptr);
  std::vector<std::pair<double, double>> starts, finishes;  // (id, pid)
  for (const obs::JsonValue& e : trace.events->items) {
    const std::string ph = e.find("ph")->string_or("");
    if (ph == "s")
      starts.emplace_back(e.find("id")->number_or(-1),
                          e.find("pid")->number_or(-1));
    else if (ph == "f")
      finishes.emplace_back(e.find("id")->number_or(-1),
                            e.find("pid")->number_or(-1));
  }
  EXPECT_FALSE(starts.empty());
  EXPECT_FALSE(finishes.empty());
  int stitched_across = 0;
  for (const auto& [id, spid] : starts)
    for (const auto& [fid, fpid] : finishes)
      if (fid == id && fpid != spid) ++stitched_across;
  EXPECT_GT(stitched_across, 0);
}

// Frames whose duration a shard registry's histogram has observed.
uint64_t frame_durations_observed(obs::MetricsRegistry& reg) {
  return reg.histogram("server.frame_duration_ms", 1e-3).snapshot().count();
}

TEST(ShardFleetObs, RebuiltEngineKeepsTracingAndReporting) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.client_silence_timeout = vt::seconds(2);
  obs::Tracer tracer;
  obs::FleetObs::Config ocfg;
  ocfg.expected_clients = cfg.players;
  obs::FleetObs fleet(&tracer, ocfg);
  cfg.fleet_obs = &fleet;
  // Shard 1's frame-duration observations and frame count at the crash.
  uint64_t observed_at_crash = 0;
  uint64_t frames_at_crash = 0;
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&] {
      observed_at_crash = frame_durations_observed(fleet.shard_metrics(1));
      frames_at_crash = mgr.shard(1).server()->frames();
      mgr.crash_shard(1);
    });
  };
  const auto r = harness::run_shard_experiment(cfg);
  ASSERT_EQ(r.shards[1].restores, 1);

  // Regression: the supervisor-rebuilt engine must be re-attached to the
  // plane. Its generation-1 worker tracks exist and carry spans...
  int g1_track = -1;
  for (int t = 0; t < tracer.track_count(); ++t)
    if (tracer.track_name(t) == "shard-1/g1/t0") g1_track = t;
  ASSERT_NE(g1_track, -1)
      << "rebuilt engine was not re-attached to the tracer";
  EXPECT_GT(tracer.events(g1_track).size(), 0u)
      << "rebuilt engine recorded no spans after restore";
  EXPECT_EQ(tracer.track_pid(g1_track), fleet.shard_pid(1));

  // ...and it feeds the shard's registry: every frame run after the
  // restore (the restored counter resumes at or below the crash frame)
  // observed its duration into the same histogram.
  ASSERT_GT(r.shards[1].frames, frames_at_crash);
  EXPECT_GE(frame_durations_observed(fleet.shard_metrics(1)),
            observed_at_crash + (r.shards[1].frames - frames_at_crash))
      << "rebuilt engine was not re-attached to the shard registry";
}

TEST(ShardFleetObs, SupervisorTransitionsAppearAsInstants) {
  auto cfg = base_cfg(2, 16);
  cfg.fleet.boundary_margin = 1e9f;
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(0); });
  };
  obs::Tracer tracer;
  obs::FleetObs fleet(&tracer);
  cfg.fleet_obs = &fleet;
  const auto r = harness::run_shard_experiment(cfg);
  ASSERT_EQ(r.shards[0].restores, 1);

  ParsedTrace trace(tracer.export_chrome_trace());
  ASSERT_NE(trace.events, nullptr);
  EXPECT_EQ(trace.count_instants_on("shard-0/supervisor",
                                    "quarantine:crash-flag"),
            1);
  EXPECT_EQ(trace.count_instants_on("shard-0/supervisor",
                                    "restore:tail-replay"),
            1);
  EXPECT_EQ(trace.count_instants_on("shard-1/supervisor",
                                    "quarantine:crash-flag"),
            0);
  // The instants agree with the supervisor's own books.
  EXPECT_EQ(r.shards[0].escalations, 1u);
  EXPECT_EQ(r.shards[1].escalations, 0u);
}

// The recovery-pause gauge holds the largest restore pause since the
// previous observation window and is zeroed once the window is judged, so
// one slow restore breaches the SLO in exactly one window, not in every
// window after it.
TEST(ShardFleetObs, ASlowRestoreBreachesTheRecoveryPauseSloOnce) {
  vt::SimPlatform platform;
  net::VirtualNetwork net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  obs::FleetObs plane(nullptr);  // default SLOs; outlives the manager
  shard::Config fleet;
  fleet.shards = 1;
  shard::ShardManager mgr(platform, net, map, fleet);
  plane.attach(mgr);

  plane.on_restore(0, 0, 20.0, "checkpoint-only");
  for (int window = 0; window < 3; ++window) plane.evaluate_window();

  int pause_breaches = 0;
  for (const obs::SloBreach& b : plane.slo().breaches()) {
    if (b.slo != "recovery_pause") continue;
    ++pause_breaches;
    EXPECT_EQ(b.observed, 20.0);
  }
  EXPECT_EQ(pause_breaches, 1);
  EXPECT_EQ(plane.slo().evaluations(), 6u);  // shard0 + fleet, 3 windows
}

TEST(ShardFleetObs, PersistentClientLossBreachesTheSlo) {
  auto cfg = base_cfg(2, 12);
  cfg.fleet.boundary_margin = 1e9f;
  // No checkpoints and no reconnect backstop: the crashed shard comes
  // back empty and its clients stay gone for the rest of the run.
  cfg.fleet.server.recovery.enabled = false;
  cfg.measure = vt::seconds(3);
  cfg.schedule_faults = [&](vt::Platform& p, shard::ShardManager& mgr) {
    p.call_after(cfg.warmup + vt::seconds(1), [&mgr] { mgr.crash_shard(0); });
  };
  // Only the lost-clients SLO: the recovery-pause spec is host-clock and
  // would flake under a parallel ctest run.
  obs::SloSpec lost_spec;
  lost_spec.name = "lost_clients";
  lost_spec.metric = "fleet.clients.lost";
  lost_spec.stat = obs::SloSpec::Stat::kValue;
  lost_spec.bound = 0.0;
  obs::FleetObs::Config ocfg;
  ocfg.slos = {lost_spec};
  ocfg.expected_clients = cfg.players;
  obs::FleetObs fleet(nullptr, ocfg);  // tracer-less plane still monitors
  cfg.fleet_obs = &fleet;
  const auto r = harness::run_shard_experiment(cfg);

  ASSERT_EQ(r.shards[0].restores, 1);
  EXPECT_EQ(r.silence_reconnects, 0u);  // no backstop configured
  ASSERT_FALSE(r.slo_breaches.empty())
      << "persistent client loss was not flagged";
  for (const auto& b : r.slo_breaches) {
    EXPECT_EQ(b.slo, "lost_clients");
    EXPECT_EQ(b.scope, "fleet");
    EXPECT_GT(b.observed, 0.0);
  }
}

}  // namespace
}  // namespace qserv
