// Overload protection & self-healing (src/resilience/): token-bucket
// backpressure, connect-time admission control, the adaptive degradation
// governor, and the worker watchdog with stall recovery. Unit tests for
// each mechanism plus full-system runs on the simulated platform (fixed
// seeds, deterministic) and one watchdog run under real threads.
#include <gtest/gtest.h>

#include "src/net/virtual_udp.hpp"
#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/harness/experiment.hpp"
#include "src/net/fault_scheduler.hpp"
#include "src/resilience/governor.hpp"
#include "src/resilience/token_bucket.hpp"
#include "src/resilience/watchdog.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv {
namespace {

constexpr vt::TimePoint t0 = vt::TimePoint::zero();

// --- token bucket (GCRA) ---

TEST(TokenBucket, BurstThenSustainedRate) {
  resilience::TokenBucket tb;
  tb.configure(10.0, 5.0);  // 10 moves/s sustained, burst of 5
  ASSERT_TRUE(tb.enabled());

  // An idle bucket absorbs the whole burst at one instant...
  int took = 0;
  for (int i = 0; i < 20; ++i) took += tb.try_take(0) ? 1 : 0;
  EXPECT_GE(took, 5);
  EXPECT_LE(took, 6);  // GCRA admits burst+1 at the exact boundary

  // ...then refills at exactly the sustained rate: one token per 100 ms.
  int64_t now = 0;
  for (int step = 1; step <= 10; ++step) {
    now += 100'000'000;  // +100 ms
    int granted = 0;
    for (int i = 0; i < 5; ++i) granted += tb.try_take(now) ? 1 : 0;
    EXPECT_EQ(granted, 1) << "at step " << step;
  }

  // A long quiet period restores the full burst allowance.
  now += 10'000'000'000;  // +10 s
  int granted = 0;
  for (int i = 0; i < 20; ++i) granted += tb.try_take(now) ? 1 : 0;
  EXPECT_GE(granted, 5);
}

TEST(TokenBucket, ZeroRateDisablesLimiting) {
  resilience::TokenBucket tb;
  tb.configure(0.0, 5.0);
  EXPECT_FALSE(tb.enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(tb.try_take(0));
}

// --- frame-budget governor ---

resilience::Config governor_cfg() {
  resilience::Config cfg;
  cfg.governor = true;
  cfg.tick_budget = vt::millis(10);
  cfg.window = 8;
  cfg.dwell = 4;
  return cfg;
}

TEST(FrameGovernor, StepsDownUnderOverloadAndBackUpWithHysteresis) {
  resilience::FrameGovernor gov(governor_cfg());
  EXPECT_EQ(gov.level(), resilience::kNormal);

  // Sustained 20 ms frames against a 10 ms budget: the ladder steps down
  // one rung per dwell period once the window has filled, then pins at
  // the deepest rung.
  for (int i = 0; i < 40; ++i) gov.on_frame(vt::millis(20));
  EXPECT_EQ(gov.level(), resilience::kEvictExpensive);
  EXPECT_EQ(gov.counters().steps_down, 4u);
  EXPECT_EQ(gov.max_level_reached(), resilience::kEvictExpensive);
  EXPECT_GT(gov.counters().frames_degraded, 0u);
  EXPECT_GT(gov.p95_ms(), 10.0);

  // Frames between exit (6 ms) and enter (10 ms) thresholds: hysteresis
  // holds the level — no chattering at the boundary.
  for (int i = 0; i < 40; ++i) gov.on_frame(vt::millis(8));
  EXPECT_EQ(gov.level(), resilience::kEvictExpensive);
  EXPECT_EQ(gov.counters().steps_up, 0u);

  // Recovery: fast frames walk the ladder back up to normal.
  for (int i = 0; i < 60; ++i) gov.on_frame(vt::millis(2));
  EXPECT_EQ(gov.level(), resilience::kNormal);
  EXPECT_EQ(gov.counters().steps_up, 4u);
}

TEST(FrameGovernor, RespectsMaxLevelCap) {
  auto cfg = governor_cfg();
  cfg.max_level = resilience::kCoalesceMoves;
  resilience::FrameGovernor gov(cfg);
  for (int i = 0; i < 100; ++i) gov.on_frame(vt::millis(50));
  EXPECT_EQ(gov.level(), resilience::kCoalesceMoves);
  EXPECT_TRUE(gov.at_least(resilience::kThinFarEntities));
  EXPECT_FALSE(gov.at_least(resilience::kShedDebugWork));
}

TEST(FrameGovernor, DisabledLadderStillFeedsAdmissionP95) {
  auto cfg = governor_cfg();
  cfg.governor = false;  // ladder off; admission control may still be on
  resilience::FrameGovernor gov(cfg);
  EXPECT_FALSE(gov.admission_overloaded());
  for (int i = 0; i < 40; ++i) gov.on_frame(vt::millis(20));
  EXPECT_EQ(gov.level(), resilience::kNormal);
  EXPECT_EQ(gov.counters().steps_down, 0u);
  EXPECT_GT(gov.p95_ms(), 12.5);  // 1.25 * 10 ms
  EXPECT_TRUE(gov.admission_overloaded());
}

TEST(FrameGovernor, LevelNamesCoverTheLadder) {
  EXPECT_STREQ(resilience::degrade_level_name(resilience::kNormal), "normal");
  for (int l = resilience::kNormal; l <= resilience::kEvictExpensive; ++l) {
    EXPECT_STRNE(resilience::degrade_level_name(l), "?");
  }
}

// --- worker watchdog ---

TEST(WorkerWatchdog, DetectsStallsAndRecoveries) {
  resilience::Config cfg;
  cfg.watchdog_timeout = vt::millis(100);
  resilience::WorkerWatchdog wd(cfg, 3);
  ASSERT_TRUE(wd.enabled());

  wd.heartbeat(0, t0);
  wd.heartbeat(1, t0);
  // Thread 2 never starts: it must never be declared stalled.

  EXPECT_FALSE(wd.check_due(t0 + vt::millis(50), 0));
  // Thread 1 goes quiet past the timeout; thread 0 (the asker) is exempt.
  EXPECT_TRUE(wd.check_due(t0 + vt::millis(150), 0));

  auto v = wd.master_check(t0 + vt::millis(150), 0);
  ASSERT_EQ(v.newly_stalled.size(), 1u);
  EXPECT_EQ(v.newly_stalled[0], 1);
  EXPECT_TRUE(v.recovered.empty());
  EXPECT_TRUE(wd.is_stalled(1));
  EXPECT_FALSE(wd.is_stalled(0));
  EXPECT_FALSE(wd.is_stalled(2));
  // Already adjudicated: no further maintenance cue for the same stall.
  EXPECT_FALSE(wd.check_due(t0 + vt::millis(200), 0));

  // The wedged worker comes back: its next heartbeat moves it to the live
  // set and counts a recovery.
  wd.heartbeat(1, t0 + vt::millis(250));
  v = wd.master_check(t0 + vt::millis(260), 0);
  EXPECT_TRUE(v.newly_stalled.empty());
  ASSERT_EQ(v.recovered.size(), 1u);
  EXPECT_EQ(v.recovered[0], 1);
  EXPECT_FALSE(wd.is_stalled(1));
  EXPECT_EQ(wd.counters().stalls_detected, 1u);
  EXPECT_EQ(wd.counters().stalls_recovered, 1u);
}

TEST(WorkerWatchdog, ZeroTimeoutIsInert) {
  resilience::Config cfg;  // watchdog_timeout stays 0
  resilience::WorkerWatchdog wd(cfg, 2);
  EXPECT_FALSE(wd.enabled());
  wd.heartbeat(0, t0);
  EXPECT_FALSE(wd.check_due(t0 + vt::seconds(100), -1));
  EXPECT_TRUE(wd.master_check(t0 + vt::seconds(100), -1).newly_stalled.empty());
}

// --- full-system: backpressure ---

// One flooding client (500 moves/s against a 35/s budget) next to honest
// 30 fps clients: the flooder's surplus is dropped at the receive phase,
// the honest clients play on undisturbed, and the flooder stays connected
// — rate limiting is backpressure, not punishment.
TEST(Resilience, FlooderIsRateLimitedWithoutStarvingHonestClients) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.resilience.move_rate_limit = 35.0;
  scfg.resilience.move_burst = 10.0;
  core::SequentialServer server(p, net, map, scfg);

  bots::ClientDriver::Config honest_cfg;
  honest_cfg.players = 3;
  bots::ClientDriver honest(p, net, map, server, honest_cfg);

  bots::ClientDriver::Config flood_cfg;
  flood_cfg.players = 1;
  flood_cfg.first_local_port = 50000;
  flood_cfg.frame_interval = vt::millis(2);  // ~500 moves/s
  bots::ClientDriver flooder(p, net, map, server, flood_cfg);

  server.start();
  honest.start();
  flooder.start();
  p.call_after(vt::seconds(8), [&] {
    server.request_stop();
    honest.request_stop();
    flooder.request_stop();
  });
  p.run();

  const auto& fm = flooder.clients()[0]->metrics();
  // The flood actually happened and was mostly clamped: at most
  // rate * time + burst of it can ever pass the bucket.
  EXPECT_GT(fm.moves_sent, 3000u);
  const uint64_t budget = 35 * 8 + 10 + 20;  // rate*run + burst + slack
  EXPECT_GE(server.total_moves_rate_limited() + budget, fm.moves_sent);
  EXPECT_GT(server.total_moves_rate_limited(), fm.moves_sent / 2);
  // Honest clients (under the budget) lost nothing...
  EXPECT_LE(server.total_moves_rate_limited(), fm.moves_sent);
  for (const auto& c : honest.clients()) {
    EXPECT_TRUE(c->connected());
    EXPECT_GT(c->metrics().replies, 100u);
  }
  // ...and the flooder is still connected and still answered at the
  // governed rate.
  EXPECT_TRUE(flooder.clients()[0]->connected());
  EXPECT_GT(fm.replies, 100u);
  EXPECT_EQ(server.connected_clients(), 4);
}

// Oversized datagrams are clamped before any parse work.
TEST(Resilience, OversizedPacketsAreDroppedBeforeParsing) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  core::SequentialServer server(p, net, map, scfg);
  server.start();

  auto attacker = net.open(9999);
  p.spawn("attacker", vt::Domain::kClientFarm, [&] {
    std::vector<uint8_t> huge(8192, 0xAB);
    for (int i = 0; i < 50; ++i) {
      attacker->send(scfg.base_port, std::vector<uint8_t>(huge));
      p.sleep_for(vt::millis(10));
    }
    p.sleep_for(vt::millis(200));
    server.request_stop();
  });
  p.run();

  EXPECT_EQ(server.total_packets_oversized(), 50u);
  EXPECT_EQ(server.connected_clients(), 0);
}

// --- full-system: admission control ---

// Past the saturation knee, new connects are refused with kServerBusy and
// the refused clients back off (with retries) instead of hammering.
TEST(Resilience, AdmissionControlRefusesConnectsPastSaturation) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 4, 320,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(2);
  cfg.measure = vt::seconds(6);
  cfg.server.resilience.admission_control = true;
  // The initial connect wave lands before the rolling frame-time window
  // has seen any overload, so it is admitted wholesale; graceful churn
  // makes clients rejoin *during* the overload they created, where the
  // admission gate is actually consulted.
  cfg.churn.enabled = true;
  cfg.churn.mean_session = vt::seconds(4);
  cfg.churn.crash_fraction = 0.0f;
  cfg.churn.rejoin_delay = vt::millis(250);
  const auto r = harness::run_experiment(cfg);

  // Rejoining clients past saturation were refused with kServerBusy and
  // kept retrying with backoff.
  EXPECT_GT(r.rejected_busy, 0u);
  EXPECT_LE(r.connected, 320);
  EXPECT_GT(r.connected, 64);
  EXPECT_GT(r.client_rejected_busy, 0u);
  EXPECT_GT(r.client_connect_retries, 0u);
  // Admission control alone never steps the degradation ladder.
  EXPECT_EQ(r.governor_steps_down, 0u);
  EXPECT_EQ(r.max_degrade_level, resilience::kNormal);
}

// --- full-system: degradation governor ---

// A server driven past capacity with the governor on: the ladder steps
// down, degraded-mode work actually happens (coalescing and/or thinning),
// and the run completes with the population still connected.
TEST(Resilience, GovernorDegradesInsteadOfCollapsing) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 4, 320,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(2);
  cfg.measure = vt::seconds(4);
  cfg.server.resilience.governor = true;
  cfg.server.resilience.tick_budget = vt::millis(33);
  cfg.server.resilience.window = 16;
  cfg.server.resilience.dwell = 8;
  cfg.server.resilience.max_level = resilience::kShedDebugWork;  // no evictions
  const auto r = harness::run_experiment(cfg);

  EXPECT_GT(r.governor_steps_down, 0u);
  EXPECT_GT(r.frames_degraded, 0u);
  EXPECT_GE(r.max_degrade_level, resilience::kCoalesceMoves);
  EXPECT_GT(r.moves_coalesced, 0u);
  EXPECT_EQ(r.governor_evictions, 0u);  // capped below the evict rung
  EXPECT_GT(r.response_rate, 0.0);
}

// The ladder's last rung under the same 320-player, 4-thread overload
// with no level cap: p95 stays past the 33 ms budget long enough for the
// governor to reach kEvictExpensive, which then evicts the most expensive
// client — at most one per kEvictInterval, so over the measurement window
// the evictions are bounded by its length in intervals (+1 for an
// eviction due right at the warmup boundary). The registry/world/areanode
// audit stays clean through every eviction.
TEST(Resilience, EvictionRungShedsAtMostOneClientPerInterval) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 4, 320,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(2);
  cfg.measure = vt::seconds(4);
  cfg.server.resilience.governor = true;
  cfg.server.resilience.tick_budget = vt::millis(33);
  cfg.server.resilience.window = 16;
  cfg.server.resilience.dwell = 8;
  cfg.server.check_invariants = true;
  const auto r = harness::run_experiment(cfg);

  ASSERT_EQ(r.max_degrade_level, resilience::kEvictExpensive);
  EXPECT_GT(r.governor_evictions, 0u);
  const auto intervals =
      static_cast<uint64_t>(cfg.measure.ns / resilience::kEvictInterval.ns);
  EXPECT_LE(r.governor_evictions, intervals + 1);
  EXPECT_EQ(r.invariant_violations, 0u);
}

// --- full-system: watchdog + stall recovery (simulated platform) ---

// A worker wedged for a full second (injected via the fault timeline's
// kThreadStall) is detected within the watchdog timeout — a handful of
// frames — its clients are migrated to live workers, and when it wakes it
// rejoins the live set. Nobody is disconnected or lost.
TEST(Resilience, WatchdogRecoversStalledWorkerWithZeroLostClients) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 4, 32,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(2);
  cfg.measure = vt::seconds(6);
  cfg.server.resilience.watchdog_timeout = vt::millis(250);
  cfg.server.check_invariants = true;
  // Wedge worker 2 from t=4 s (mid-measurement) for one second.
  cfg.configure_network = [](net::VirtualNetwork& net) {
    net.faults().add_thread_stall(t0 + vt::seconds(4), vt::seconds(1), 2);
  };
  const auto r = harness::run_experiment(cfg);

  EXPECT_GE(r.stalls_injected, 1u);
  // Detected during the 1 s wedge (i.e. within the 250 ms timeout plus a
  // few frames — afterwards the resumed heartbeat would hide it forever).
  EXPECT_GE(r.stalls_detected, 1u);
  EXPECT_GE(r.stalls_recovered, 1u);
  // Its clients were migrated off (block assignment puts 8 of 32 there).
  EXPECT_GE(r.stall_reassignments, 1u);
  EXPECT_LE(r.stall_reassignments, 32u);
  // Zero lost clients: everyone still connected, nobody evicted, and the
  // registry/world/areanode audit stayed clean through the migration.
  EXPECT_EQ(r.connected, 32);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.response_rate, 0.0);
}

// --- full-system: watchdog on real threads (TSan-clean) ---

// The same detection/recovery protocol under true concurrency: heartbeats
// are relaxed atomics, adjudication happens in the master window, and the
// RealPlatform timer only pokes selectors. Run under TSan in CI.
TEST(ResilienceReal, WatchdogDetectsAndRecoversOnRealThreads) {
  vt::RealPlatform platform;
  net::VirtualNetwork network(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.resilience.watchdog_timeout = vt::millis(120);
  network.faults().add_thread_stall(platform.now() + vt::millis(300),
                                    vt::millis(400), 1);
  core::ParallelServer server(platform, network, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 6;
  dcfg.frame_interval = vt::millis(10);
  bots::ClientDriver driver(platform, network, map, server, dcfg);

  server.start();
  driver.start();
  platform.call_after(vt::millis(1500), [&] {
    server.request_stop();
    driver.request_stop();
  });
  platform.join_all();

  EXPECT_GE(server.stalls_injected(), 1u);
  ASSERT_NE(server.watchdog(), nullptr);
  EXPECT_GE(server.watchdog()->counters().stalls_detected, 1u);
  EXPECT_GE(server.watchdog()->counters().stalls_recovered, 1u);
  EXPECT_GE(server.registry().counters.stall_reassignments, 1u);
  EXPECT_EQ(server.registry().counters.evictions, 0u);
  int connected = 0;
  uint64_t replies = 0;
  for (const auto& c : driver.clients()) {
    connected += c->connected() ? 1 : 0;
    replies += c->metrics().replies;
  }
  EXPECT_EQ(connected, 6);
  EXPECT_GT(replies, 50u);
}

}  // namespace
}  // namespace qserv
