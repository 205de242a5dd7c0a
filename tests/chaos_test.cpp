// Chaos suite: client-lifecycle hardening under scheduled network faults
// and client churn. Covers the FaultScheduler timeline, server-side
// liveness reaping (client_timeout), explicit reject messages, partition
// heal/reconnect, the reassignment-vs-churn race, a long churn soak
// with the cross-structure InvariantChecker enabled throughout, and a
// two-scenario run of the chaos campaign engine. Every
// test runs on the simulated platform with fixed seeds and must pass
// deterministically.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/net/virtual_udp.hpp"
#include "src/bots/client_driver.hpp"
#include "src/chaos/campaign.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/harness/shard_experiment.hpp"
#include "src/net/fault_scheduler.hpp"
#include "src/shard/manager.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv {
namespace {

constexpr vt::TimePoint t0 = vt::TimePoint::zero();

// --- FaultScheduler unit tests (no network attached) ---

TEST(FaultScheduler, BlackholeDropsBothDirectionsWhileActive) {
  net::FaultScheduler fs(1);
  fs.add_blackhole(t0 + vt::seconds(1), vt::seconds(2), 40000);

  EXPECT_FALSE(fs.apply(t0 + vt::millis(500), 40000, 27500).drop);
  EXPECT_TRUE(fs.apply(t0 + vt::millis(1500), 40000, 27500).drop);
  EXPECT_TRUE(fs.apply(t0 + vt::millis(1500), 27500, 40000).drop);
  EXPECT_FALSE(fs.apply(t0 + vt::millis(1500), 40001, 27500).drop);
  EXPECT_FALSE(fs.apply(t0 + vt::seconds(3), 40000, 27500).drop);
  EXPECT_EQ(fs.counters().blackhole_drops, 2u);
}

TEST(FaultScheduler, PartitionSeversOnlyCrossTraffic) {
  net::FaultScheduler fs(1);
  fs.add_partition(t0, vt::seconds(10), 40000, 49999, 27500, 27599);

  const vt::TimePoint mid = t0 + vt::seconds(5);
  EXPECT_TRUE(fs.apply(mid, 40005, 27500).drop);   // A -> B
  EXPECT_TRUE(fs.apply(mid, 27501, 41000).drop);   // B -> A
  EXPECT_FALSE(fs.apply(mid, 40001, 40002).drop);  // within A
  EXPECT_FALSE(fs.apply(mid, 27500, 27501).drop);  // within B
  EXPECT_FALSE(fs.apply(mid, 50001, 27500).drop);  // outside A
  EXPECT_EQ(fs.counters().partition_drops, 2u);
  EXPECT_EQ(fs.active_at(mid), 1);
  EXPECT_EQ(fs.active_at(t0 + vt::seconds(11)), 0);
}

TEST(FaultScheduler, LatencySpikesAccumulateAndExpire) {
  net::FaultScheduler fs(1);
  fs.add_latency_spike(t0, vt::seconds(2), vt::millis(100));
  fs.add_latency_spike(t0 + vt::seconds(1), vt::seconds(2), vt::millis(50));

  EXPECT_EQ(fs.apply(t0 + vt::millis(500), 1, 2).extra_latency.ns,
            vt::millis(100).ns);
  EXPECT_EQ(fs.apply(t0 + vt::millis(1500), 1, 2).extra_latency.ns,
            vt::millis(150).ns);  // both spikes active: they stack
  EXPECT_EQ(fs.apply(t0 + vt::millis(2500), 1, 2).extra_latency.ns,
            vt::millis(50).ns);
  EXPECT_EQ(fs.apply(t0 + vt::seconds(4), 1, 2).extra_latency.ns, 0);
  EXPECT_EQ(fs.counters().delayed_packets, 3u);
}

TEST(FaultScheduler, TotalLossBurstDropsEverything) {
  net::FaultScheduler fs(1);
  fs.add_loss_burst(t0, vt::seconds(1), 1.0f);
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(fs.apply(t0 + vt::millis(i * 10), 1, 2).drop);
  EXPECT_EQ(fs.counters().burst_drops, 100u);
  EXPECT_FALSE(fs.apply(t0 + vt::seconds(2), 1, 2).drop);
}

// --- full-system chaos tests ---

// A client that connects, plays briefly, then goes silent while still
// listening must be reaped: slot freed, entity removed, and told so with
// an explicit kEvicted reject.
TEST(Chaos, SilentClientIsReapedAndToldSo) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.client_timeout = vt::millis(500);
  scfg.check_invariants = true;
  core::SequentialServer server(p, net, map, scfg);
  server.start();
  const size_t baseline_entities = server.world().active_entities();

  auto sock = net.open(40000);
  bool got_evicted = false;
  p.spawn("client", vt::Domain::kClientFarm, [&] {
    net::NetChannel chan(*sock, scfg.base_port);
    chan.send(net::encode(net::ConnectMsg{"sleepy"}));
    p.sleep_for(vt::millis(100));
    EXPECT_EQ(server.connected_clients(), 1);
    // Go silent for well past client_timeout, but keep the port bound.
    p.sleep_for(vt::seconds(2));
    net::Datagram d;
    while (sock->try_recv(d)) {
      net::NetChannel::Incoming info;
      net::ByteReader body(nullptr, 0);
      if (!chan.accept(d, info, body)) continue;
      net::ServerMsgType t;
      if (!net::decode_server_type(body, t)) continue;
      if (t != net::ServerMsgType::kReject) continue;
      net::RejectMsg rej;
      if (decode(body, rej) && rej.reason == net::RejectReason::kEvicted)
        got_evicted = true;
    }
    server.request_stop();
  });
  p.run();

  EXPECT_TRUE(got_evicted);
  EXPECT_EQ(server.registry().counters.evictions, 1u);
  EXPECT_EQ(server.connected_clients(), 0);
  EXPECT_EQ(server.world().active_entities(), baseline_entities);
  EXPECT_EQ(server.invariant_violations(), 0u);
}

// A blackholed client (crashed host: nothing in, nothing out) must be
// reaped even though the server sees no traffic at all afterwards — the
// idle loop has to run maintenance frames.
TEST(Chaos, BlackholedClientIsReapedByAnOtherwiseIdleServer) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.client_timeout = vt::millis(500);
  scfg.check_invariants = true;
  core::SequentialServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 1;
  bots::ClientDriver driver(p, net, map, server, dcfg);

  net.faults().add_blackhole(t0 + vt::seconds(1), vt::seconds(60), 40000);

  server.start();
  driver.start();
  p.call_after(vt::seconds(4), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  EXPECT_EQ(server.registry().counters.evictions, 1u);
  EXPECT_EQ(server.connected_clients(), 0);
  EXPECT_GT(net.faults().counters().blackhole_drops, 0u);
  EXPECT_EQ(server.invariant_violations(), 0u);
}

// Satellite regression: a full server answers surplus connects with an
// explicit kServerFull reject, and rejected clients stop retrying instead
// of hammering the port forever (the seed silently dropped the connect,
// leaving clients in a retry loop).
TEST(Chaos, ServerFullRejectStopsConnectRetries) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.max_clients = 4;
  core::SequentialServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;  // twice the capacity
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(3), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  EXPECT_EQ(server.connected_clients(), 4);
  EXPECT_GE(server.registry().counters.rejected_connects, 4u);
  int connected = 0, rejected = 0;
  for (const auto& c : driver.clients()) {
    if (c->connected()) {
      ++connected;
      EXPECT_FALSE(c->rejected());
    } else {
      EXPECT_TRUE(c->rejected());
      EXPECT_GE(c->metrics().rejected_full, 1u);
      // Rejected clients never joined and never sent game traffic.
      EXPECT_EQ(c->metrics().sessions, 0u);
      EXPECT_EQ(c->metrics().moves_sent, 0u);
      ++rejected;
    }
  }
  EXPECT_EQ(connected, 4);
  EXPECT_EQ(rejected, 4);
}

// A network partition between all clients and the server: clients go
// silent (reaped server-side), give up on the silent server, and once the
// partition heals everyone reconnects on fresh ports.
TEST(Chaos, HealedPartitionLetsEveryClientReconnect) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.client_timeout = vt::seconds(1);
  scfg.check_invariants = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  dcfg.server_silence_timeout = vt::seconds(1);
  bots::ClientDriver driver(p, net, map, server, dcfg);

  // Sever every client port (initial block and all fresh reconnect ports)
  // from the server's ports between t=3s and t=8s.
  net.faults().add_partition(t0 + vt::seconds(3), vt::seconds(5), 40000,
                             65535, scfg.base_port,
                             static_cast<uint16_t>(scfg.base_port + 7));

  server.start();
  driver.start();
  p.call_after(vt::seconds(16), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  // During the partition every client went silent past client_timeout...
  EXPECT_EQ(server.registry().counters.evictions, 8u);
  EXPECT_GT(net.faults().counters().partition_drops, 0u);
  // ...and after it healed, every client reconnected.
  int connected = 0;
  uint64_t silence_reconnects = 0;
  for (const auto& c : driver.clients()) {
    connected += c->connected() ? 1 : 0;
    silence_reconnects += c->metrics().silence_reconnects;
  }
  EXPECT_EQ(connected, 8);
  EXPECT_EQ(server.connected_clients(), 8);
  EXPECT_GE(silence_reconnects, 8u);
  EXPECT_EQ(server.invariant_violations(), 0u);
}

// Satellite: dynamic reassignment racing with disconnects and evictions.
// Clients churn (crash + quit) while the master re-partitions ownership
// every 500 ms; the registry, world, and areanode tree must stay
// consistent through every combination.
TEST(Chaos, ReassignmentRacesChurnWithoutCorruption) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 4;
  scfg.assign_policy = core::AssignPolicy::kRegion;
  scfg.reassign_interval = vt::millis(500);
  scfg.client_timeout = vt::seconds(1);
  scfg.check_invariants = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  dcfg.server_silence_timeout = vt::seconds(2);
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(5);
  dcfg.churn.crash_fraction = 0.5f;
  bots::ClientDriver driver(p, net, map, server, dcfg);

  server.start();
  driver.start();
  p.call_after(vt::seconds(30), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  const auto agg = driver.aggregate(vt::seconds(30));
  EXPECT_GT(server.registry().counters.reassignments, 0u);
  // Crashed clients were reaped.
  EXPECT_GT(server.registry().counters.evictions, 0u);
  EXPECT_GT(agg.crashes, 0u);
  EXPECT_GT(agg.graceful_quits, 0u);
  EXPECT_GT(agg.rejoins, 0u);
  EXPECT_EQ(server.invariant_violations(), 0u)
      << "registry/world/areanode audit failed during reassignment churn";
  // No slot leak: live slots never exceed the player population plus
  // crashed slots still inside the timeout window.
  EXPECT_LE(server.connected_clients(), 24 + 4);
}

// The tentpole soak: ~30% of sessions end in a crash, the rest quit
// cleanly, for 10 simulated minutes, with the cross-structure invariant
// audit running after every frame. No slot may leak: the server stays
// joinable for the whole population to the end.
TEST(Chaos, TenMinuteChurnSoakLeaksNoSlots) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(2048);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.client_timeout = vt::seconds(2);
  scfg.check_invariants = true;
  scfg.max_clients = 64;  // headroom a slot leak would exhaust
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  dcfg.server_silence_timeout = vt::seconds(3);
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(20);
  dcfg.churn.crash_fraction = 0.3f;
  bots::ClientDriver driver(p, net, map, server, dcfg);

  server.start();
  driver.start();
  p.call_after(vt::seconds(600), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  const auto agg = driver.aggregate(vt::seconds(600));
  // The churn actually happened, in both flavors.
  EXPECT_GT(agg.sessions, 100u);
  EXPECT_GT(agg.crashes, 10u);
  EXPECT_GT(agg.graceful_quits, 10u);
  EXPECT_GT(agg.rejoins, 50u);

  // Every crash was eventually reaped (the last few may still be inside
  // the timeout window at shutdown).
  EXPECT_GE(server.registry().counters.evictions + 2, agg.crashes);
  // Zero slot leak: the server never filled up, so nobody was rejected,
  // and the live slot count stays bounded by the population plus the
  // handful of crashed slots awaiting the reaper.
  EXPECT_EQ(agg.rejected_full, 0u);
  EXPECT_EQ(server.registry().counters.rejected_connects, 0u);
  EXPECT_LE(server.connected_clients(), 12 + 4);
  // The whole run passed the registry/world/areanode audit every frame.
  EXPECT_EQ(server.invariant_violations(), 0u);
}

// Satellite regression: when an evicted client's slot is reused by the
// next joiner, none of the old session's delta-snapshot state may leak —
// the reject goes out before teardown, the slot's baseline history is
// cleared, and the newcomer decodes every delta against its own session's
// baselines only. With max_clients == 1 every rejoin is guaranteed to
// land in the reaped client's slot.
TEST(Chaos, EvictedSlotReuseLeaksNoStaleDeltaHistory) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.max_clients = 1;
  scfg.delta_snapshots = true;
  scfg.client_timeout = vt::millis(300);
  scfg.check_invariants = true;
  core::SequentialServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 1;
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(2);
  dcfg.churn.crash_fraction = 1.0f;  // always vanish; the reaper must act
  dcfg.churn.rejoin_delay = vt::seconds(1);  // re-join after the reap
  bots::ClientDriver driver(p, net, map, server, dcfg);

  server.start();
  driver.start();
  p.call_after(vt::seconds(20), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  const auto& m = driver.clients()[0]->metrics();
  // The slot really cycled several times through crash -> reap -> rejoin.
  EXPECT_GE(m.sessions, 4u);
  EXPECT_GE(server.registry().counters.evictions, 3u);
  EXPECT_EQ(m.rejected_full, 0u);  // the reaped slot was free every time
  // Deltas flowed in every session, and not one referenced a baseline
  // from a previous tenant of the slot: a leaked history entry would
  // surface as an undecodable delta on the fresh client.
  EXPECT_GT(m.delta_snapshots, 0u);
  EXPECT_GT(m.full_snapshots, 0u);  // each new session starts from a full
  EXPECT_EQ(m.undecodable_deltas, 0u);
  EXPECT_EQ(server.invariant_violations(), 0u);
}

// --- sharded fleet under chaos -------------------------------------------

// Four shards, a tight boundary margin so roaming bots keep migrating
// between engines, a fleet-wide loss burst, and a hard
// partition cutting every client off from one shard. The fleet must come
// out with every client holding a session, zero invariant violations, and
// — critically — zero supervisor escalations: network chaos starves a
// shard of *requests*, but its frame loop keeps beating, so the stall
// detector must not mistake packet loss for engine failure.
TEST(ShardChaos, FourShardFaultSoakKeepsEveryClient) {
  harness::ShardExperimentConfig cfg;
  cfg.fleet.shards = 4;
  cfg.fleet.server.threads = 2;
  cfg.fleet.server.check_invariants = true;
  cfg.fleet.server.recovery.enabled = true;
  cfg.fleet.server.recovery.checkpoint_interval = 32;
  cfg.fleet.server.client_timeout = vt::seconds(1);
  cfg.fleet.boundary_margin = 8.0f;  // bots cross slab boundaries
  cfg.players = 32;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(9);
  cfg.client_silence_timeout = vt::seconds(1);
  cfg.seed = 29;
  cfg.configure_network = [](net::VirtualNetwork& net) {
    // A fleet-wide loss storm...
    net.faults().add_loss_burst(t0 + vt::seconds(3), vt::millis(1500), 0.6f);
    // ...then every client (ports 40000+) severed from shard 2's engine
    // (base_port + 2*kPortStride .. +threads-1) for two full seconds —
    // longer than both the client timeout and the silence timeout.
    net.faults().add_partition(t0 + vt::seconds(6), vt::seconds(2), 40000,
                               65535, 27628, 27629);
  };
  const auto r = harness::run_shard_experiment(cfg);

  EXPECT_EQ(r.connected, cfg.players);
  EXPECT_GT(r.handoffs_out, 0u);
  EXPECT_GT(r.silence_reconnects, 0u);  // the partition forced rejoins
  for (const auto& ps : r.shards) {
    EXPECT_FALSE(ps.down);
    EXPECT_EQ(ps.state, shard::ShardState::kHealthy);
    EXPECT_EQ(ps.escalations, 0u);  // no false-positive failure detection
    EXPECT_EQ(ps.invariant_violations, 0u);
    EXPECT_GT(ps.frames, 0u);
  }
}

// A two-scenario campaign with short windows, so the campaign engine
// (baseline, step installation, the state-triggered re-crash poll,
// verdicts, digest comparison) runs under ctest and its sanitizer jobs.
TEST(ChaosCampaign, TwoScenarioMiniCampaignPasses) {
  harness::ShardExperimentConfig base;
  base.fleet.shards = 2;
  base.fleet.server.threads = 2;
  base.fleet.server.check_invariants = true;
  base.fleet.server.recovery.enabled = true;
  base.fleet.server.recovery.checkpoint_interval = 32;
  base.fleet.server.recovery.journal_frames = 256;
  base.fleet.boundary_margin = 1e9f;  // pinned sessions: digests comparable
  base.players = 16;
  base.warmup = vt::millis(500);
  base.measure = vt::seconds(2);
  base.client_silence_timeout = vt::seconds(2);
  base.seed = 42;
  const vt::Duration mid = base.warmup + vt::seconds(1);
  using Kind = chaos::FaultStep::Kind;

  chaos::Scenario crash;
  crash.name = "single-crash";
  crash.steps = {{.kind = Kind::kCrashShard, .at = mid, .shard = 1}};
  crash.digest_shards = {0};
  crash.expect_restored = {1};
  crash.mode_shard = 1;
  crash.expect_mode = "tail-replay";
  chaos::Scenario recrash;
  recrash.name = "crash-after-restore";
  recrash.steps = {{.kind = Kind::kCrashShard, .at = mid, .shard = 1},
                   {.kind = Kind::kCrashOnRestore, .at = mid, .shard = 1}};
  recrash.digest_shards = {0};
  recrash.expect_restored = {1};
  for (chaos::Scenario* s : {&crash, &recrash}) {
    // The restore pause is host-clock: a sanitizer build may overrun the
    // budget, which the verdict then reports as degraded, not failed.
    s->allow_slos = {"recovery_pause"};
  }

  chaos::Campaign campaign(base);
  campaign.add(crash);
  campaign.add(recrash);
  const chaos::CampaignResult res = campaign.run();

  ASSERT_TRUE(res.baseline_ok) << res.baseline_failures.front();
  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const chaos::ScenarioOutcome& o : res.outcomes) {
    EXPECT_TRUE(o.verdict.pass)
        << o.name << ": " << o.verdict.failures.front();
    EXPECT_GT(o.digest_frames_checked, 0u) << o.name;
  }
  EXPECT_EQ(res.outcomes[0].result.shards[1].restores, 1);
  EXPECT_EQ(res.outcomes[1].result.shards[1].restores, 2);  // re-crashed
  EXPECT_TRUE(res.all_passed());

  // The standard suite (run by bench_chaos_campaign): distinct names, and
  // every scenario injects something.
  const std::vector<chaos::Scenario> suite = chaos::standard_scenarios(base);
  std::set<std::string> names;
  for (const chaos::Scenario& s : suite) {
    EXPECT_FALSE(s.steps.empty()) << s.name;
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), suite.size());
  EXPECT_EQ(suite.size(), 11u);
}

// The same supervised-recovery story on the REAL platform: two shards on
// std::thread, live bots migrating across the boundary, a crash injected
// mid-run, and the supervisor quarantining + restoring the engine while
// everything else keeps running. This is the configuration the TSan CI
// job runs — the supervisor timer, worker quiescence gate, heartbeat
// atomics and mailbox handoffs all race for real here.
TEST(ShardChaosReal, CrashedShardRecoversUnderRealThreads) {
  vt::RealPlatform platform;
  net::VirtualNetwork net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  shard::Config fleet;
  fleet.shards = 2;
  fleet.server.threads = 2;
  fleet.server.recovery.enabled = true;
  fleet.server.recovery.checkpoint_interval = 8;
  fleet.boundary_margin = 8.0f;
  fleet.supervise_interval = vt::millis(5);
  fleet.heartbeat_timeout = vt::millis(250);
  shard::ShardManager mgr(platform, net, map, fleet);

  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  dcfg.frame_interval = vt::millis(10);
  dcfg.server_silence_timeout = vt::millis(600);  // backstop only
  dcfg.join_port = [&mgr](int i) { return mgr.join_port(i, 12); };
  bots::ClientDriver driver(platform, net, map, *mgr.shard(0).server(),
                            dcfg);

  mgr.start();
  driver.start();
  platform.call_after(vt::millis(900), [&] { mgr.crash_shard(1); });
  platform.call_after(vt::millis(2400), [&] {
    mgr.request_stop();
    driver.request_stop();
  });
  platform.join_all();

  const auto& rep = mgr.supervisor().report(1);
  EXPECT_GE(rep.escalations, 1u);
  EXPECT_EQ(rep.state, shard::ShardState::kHealthy);
  EXPECT_GE(mgr.shard(1).restores(), 1);
  int connected = 0;
  uint64_t replies = 0;
  for (const auto& c : driver.clients()) {
    connected += c->connected() ? 1 : 0;
    replies += c->metrics().replies;
  }
  EXPECT_EQ(connected, 12);
  EXPECT_GT(replies, 100u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(mgr.shard(i).down());
    EXPECT_EQ(mgr.shard(i).server()->invariant_violations(), 0u);
  }
}

// Multi-fault soak on the REAL platform: four shards on std::thread,
// roaming bots, two staggered crashes plus a fleet-wide loss burst while
// the first recovery is still in flight. This is the heaviest
// configuration the TSan CI job runs — two supervisor recoveries racing
// the handoff mailboxes, redirect re-arming, heartbeat atomics and the
// loss-degraded network all at once.
TEST(ShardChaosReal, FourShardMultiFaultSoakUnderRealThreads) {
  vt::RealPlatform platform;
  net::VirtualNetwork net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  shard::Config fleet;
  fleet.shards = 4;
  fleet.server.threads = 2;
  fleet.server.recovery.enabled = true;
  fleet.server.recovery.checkpoint_interval = 8;
  fleet.boundary_margin = 8.0f;
  fleet.supervise_interval = vt::millis(5);
  fleet.heartbeat_timeout = vt::millis(250);
  fleet.restore_backoff = vt::millis(5);
  fleet.restore_backoff_max = vt::millis(20);
  shard::ShardManager mgr(platform, net, map, fleet);

  bots::ClientDriver::Config dcfg;
  dcfg.players = 16;
  dcfg.frame_interval = vt::millis(10);
  dcfg.server_silence_timeout = vt::millis(600);  // backstop only
  dcfg.join_port = [&mgr](int i) { return mgr.join_port(i, 16); };
  bots::ClientDriver driver(platform, net, map, *mgr.shard(0).server(),
                            dcfg);

  net.faults().add_loss_burst(vt::TimePoint::zero() + vt::millis(1100),
                              vt::millis(400), 0.5f);
  mgr.start();
  driver.start();
  platform.call_after(vt::millis(900), [&] { mgr.crash_shard(1); });
  platform.call_after(vt::millis(1400), [&] { mgr.crash_shard(3); });
  platform.call_after(vt::millis(3200), [&] {
    mgr.request_stop();
    driver.request_stop();
  });
  platform.join_all();

  for (const int i : {1, 3}) {
    const auto& rep = mgr.supervisor().report(i);
    EXPECT_GE(rep.escalations, 1u) << i;
    EXPECT_EQ(rep.state, shard::ShardState::kHealthy) << i;
    EXPECT_GE(mgr.shard(i).restores(), 1) << i;
  }
  int connected = 0;
  uint64_t replies = 0;
  for (const auto& c : driver.clients()) {
    connected += c->connected() ? 1 : 0;
    replies += c->metrics().replies;
  }
  EXPECT_EQ(connected, 16);
  EXPECT_GT(replies, 100u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(mgr.shard(i).down());
    EXPECT_EQ(mgr.shard(i).server()->invariant_violations(), 0u);
  }
}

}  // namespace
}  // namespace qserv
