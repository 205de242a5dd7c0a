// Reply-path equivalence (DESIGN.md §15): the sweep over the entity view
// must select exactly the entities the per-entity oracle gather selects,
// charging the same virtual time, and the span encoders must produce
// wire messages byte-identical to net::encode and the oracle
// net::encode_delta (tests/reply_oracle.hpp). Property-style: random
// worlds, random viewers, evolving baselines, both PVS and no-PVS (LOS)
// maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/harness/experiment.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/sim/snapshot.hpp"
#include "src/sim/world.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/sim_platform.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv {
namespace {

struct TestWorld {
  spatial::GameMap map;
  sim::World world;
  std::vector<uint32_t> player_ids;

  // The no-PVS variant strips the arena's (trivial) PVS so the sweep
  // takes the LOS-trace fallback, matching maps without vis data.
  static spatial::GameMap make_map(bool with_pvs, uint64_t seed) {
    spatial::GameMap m = with_pvs ? spatial::make_large_deathmatch(seed)
                                  : spatial::make_arena(1024.0f, seed);
    if (!with_pvs) m.pvs = spatial::PvsData{};
    return m;
  }

  TestWorld(bool with_pvs, uint64_t seed, vt::Platform* platform = nullptr)
      : map(make_map(with_pvs, seed)),
        world(map, sim::World::Config{4, seed}, platform) {
    Rng rng(seed * 977 + 11);
    for (int i = 0; i < 24; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      sim::Entity& p = world.spawn_player(name);
      player_ids.push_back(p.id);
      scatter(p, rng);
    }
    for (int i = 0; i < 40; ++i) {
      sim::Entity& it = world.spawn_entity(sim::EntityType::kItem);
      it.origin = rng.point_in({-1200, -1200, 0}, {1200, 1200, 40});
      it.available = (i % 3) != 0;
      world.link(it);
    }
  }

  void scatter(sim::Entity& e, Rng& rng) {
    e.origin = rng.point_in({-1200, -1200, 0}, {1200, 1200, 40});
    e.yaw_deg = rng.uniform(0.0f, 360.0f);
    world.relink(e);
  }

  // One evolution step: move some entities, toggle some states.
  void mutate(Rng& rng) {
    world.for_each_entity([&](sim::Entity& e) {
      if (rng.chance(0.4f)) {
        e.origin += rng.point_in({-60, -60, 0}, {60, 60, 5});
        world.relink(e);
      }
      if (rng.chance(0.1f)) {
        if (e.type == sim::EntityType::kItem) e.available = !e.available;
        if (e.type == sim::EntityType::kPlayer)
          e.health = e.health > 0 ? 0 : 100;
        world.mark_dirty(e.id);
      }
    });
  }
};

bool updates_equal(const net::EntityUpdate& a, const net::EntityUpdate& b) {
  return a.id == b.id && a.type == b.type && a.origin == b.origin &&
         a.yaw_deg == b.yaw_deg && a.state == b.state;
}

std::vector<net::GameEvent> some_events(Rng& rng) {
  std::vector<net::GameEvent> ev;
  const int n = static_cast<int>(rng.uniform(0.0f, 4.0f));
  for (int i = 0; i < n; ++i) {
    ev.push_back({static_cast<uint8_t>(1 + i), rng.next_u32(), rng.next_u32(),
                  rng.point_in({-10, -10, 0}, {10, 10, 10})});
  }
  return ev;
}

// The view sweep selects the same entities, in the same order, with the
// same fields, as the per-entity oracle gather — on PVS maps and LOS
// (no-PVS) maps, with and without far-thinning — and its reply, with the
// events as encoded records, is byte-identical to the oracle's.
TEST(ReplyEquivalence, ViewSweepMatchesOracleGather) {
  for (const bool with_pvs : {true, false}) {
    TestWorld tw(with_pvs, 5);
    ASSERT_EQ(tw.map.pvs.empty(), !with_pvs);
    Rng rng(99);
    net::Snapshot oracle_snap, view_snap;
    std::vector<uint32_t> rows;
    for (uint32_t frame = 1; frame <= 8; ++frame) {
      tw.mutate(rng);
      tw.world.refresh_view();
      const auto events = some_events(rng);
      const net::EventRecords records(events);
      for (const uint32_t pid : tw.player_ids) {
        const sim::Entity* viewer = tw.world.get(pid);
        ASSERT_NE(viewer, nullptr);
        const bool thin_far = (frame & 1) != 0;
        const auto oracle_stats =
            sim::build_snapshot(tw.world, *viewer, frame, 7, 123, events,
                                oracle_snap, thin_far);
        const auto stats = sim::sweep_snapshot(tw.world, *viewer, frame, 7,
                                               123, records.count, view_snap,
                                               rows, thin_far);
        EXPECT_EQ(stats.interest_checks, oracle_stats.interest_checks);
        EXPECT_EQ(stats.los_traces, oracle_stats.los_traces);
        EXPECT_EQ(stats.los_brushes, oracle_stats.los_brushes);
        ASSERT_EQ(view_snap.entities.size(), oracle_snap.entities.size())
            << "pvs=" << with_pvs << " frame=" << frame << " viewer=" << pid;
        for (size_t i = 0; i < view_snap.entities.size(); ++i) {
          EXPECT_TRUE(
              updates_equal(view_snap.entities[i], oracle_snap.entities[i]));
        }
        ASSERT_EQ(rows.size(), view_snap.entities.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(tw.world.view().ids[rows[i]], view_snap.entities[i].id);
        }
        net::ByteWriter w;
        sim::write_full_snapshot(view_snap, tw.world.view(), rows,
                                 records.span(), w);
        EXPECT_EQ(w.data(), net::encode(oracle_snap));
      }
    }
  }
}

// The sweep charges exactly the virtual time the oracle gather charges
// (per PVS lookup / LOS trace, then the interest/visible/event lump), so
// simulated runs keep the paper-era cost stream.
TEST(ReplyEquivalence, SweepChargesMatchOracle) {
  for (const bool with_pvs : {true, false}) {
    vt::SimPlatform p;
    p.spawn("sweep", vt::Domain::kServer, [&] {
      TestWorld tw(with_pvs, 13, &p);
      Rng rng(3);
      net::Snapshot snap;
      std::vector<uint32_t> rows;
      for (uint32_t frame = 1; frame <= 4; ++frame) {
        tw.mutate(rng);
        tw.world.refresh_view();
        const auto events = some_events(rng);
        for (const uint32_t pid : tw.player_ids) {
          const sim::Entity& viewer = *tw.world.get(pid);
          const vt::TimePoint t0 = p.now();
          sim::build_snapshot(tw.world, viewer, frame, 1, 2, events, snap);
          const vt::TimePoint t1 = p.now();
          sim::sweep_snapshot(tw.world, viewer, frame, 1, 2, events.size(),
                              snap, rows);
          const vt::TimePoint t2 = p.now();
          EXPECT_GT((t1 - t0).ns, 0);
          EXPECT_EQ((t2 - t1).ns, (t1 - t0).ns)
              << "pvs=" << with_pvs << " viewer=" << pid;
        }
      }
    });
    p.run();
  }
}

// Full encoding is byte-identical to net::encode over the same entity
// set, the span of encoded event records included.
TEST(ReplyEquivalence, FullEncodeByteIdentical) {
  TestWorld tw(/*with_pvs=*/true, 23);
  Rng rng(17);
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  for (uint32_t frame = 1; frame <= 6; ++frame) {
    tw.mutate(rng);
    tw.world.refresh_view();
    const auto events = some_events(rng);
    const net::EventRecords records(events);
    for (const uint32_t pid : tw.player_ids) {
      const sim::Entity* viewer = tw.world.get(pid);
      sim::sweep_snapshot(tw.world, *viewer, frame, 42, 555, records.count,
                          snap, rows);
      snap.assigned_port = static_cast<uint16_t>(frame);  // exercise field
      snap.events = events;  // the oracle encodes them field by field
      const std::vector<uint8_t> oracle = net::encode(snap);
      net::ByteWriter w;
      sim::write_full_snapshot(snap, tw.world.view(), rows, records.span(),
                               w);
      EXPECT_EQ(w.data(), oracle) << "frame " << frame << " viewer " << pid;
    }
  }
}

// Delta encoding is byte-identical to the oracle net::encode_delta
// against evolving baselines — including removals, new entities,
// slot-churned ids, and baselines in arbitrary order (the sort fallback).
TEST(ReplyEquivalence, DeltaEncodeByteIdentical) {
  TestWorld tw(/*with_pvs=*/true, 31);
  Rng rng(43);
  std::mt19937 shuffler(7);
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sim::EncodeScratch scratch;
  // Per-viewer history of the last sweep, as the server keeps per client.
  std::vector<std::vector<net::EntityUpdate>> history(tw.player_ids.size());
  for (uint32_t frame = 1; frame <= 10; ++frame) {
    tw.mutate(rng);
    tw.world.refresh_view();
    const auto events = some_events(rng);
    const net::EventRecords records(events);
    for (size_t vi = 0; vi < tw.player_ids.size(); ++vi) {
      const sim::Entity* viewer = tw.world.get(tw.player_ids[vi]);
      sim::sweep_snapshot(tw.world, *viewer, frame, frame * 3, 999,
                          records.count, snap, rows,
                          /*thin_far=*/(frame % 3) == 0);
      snap.events = events;  // the oracle encodes them field by field
      std::vector<net::EntityUpdate> baseline = history[vi];
      if (frame % 4 == 0) {
        // Arbitrary baseline order must not change the bytes (the
        // encoder normalizes through its sorted index).
        std::shuffle(baseline.begin(), baseline.end(), shuffler);
      }
      const uint32_t bf = frame - 1;
      int oracle_count = -1;
      const std::vector<uint8_t> oracle =
          net::encode_delta(snap, baseline, bf, &oracle_count);
      net::ByteWriter w;
      const int count =
          sim::write_delta_snapshot(snap, tw.world.view(), rows, baseline, bf,
                                    records.span(), scratch, w);
      EXPECT_EQ(count, oracle_count);
      EXPECT_EQ(w.data(), oracle) << "frame " << frame << " viewer " << vi;
      history[vi] = snap.entities;
    }
  }
}

harness::ExperimentConfig delta_cfg(int players) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 2, players,
                                   core::LockPolicy::kConservative);
  cfg.server.delta_snapshots = true;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(4);
  return cfg;
}

// End to end: real clients decode every snapshot (full and delta) into a
// playable game.
TEST(ReplyEquivalenceE2E, GameWorks) {
  const auto r = harness::run_experiment(delta_cfg(48));
  EXPECT_EQ(r.connected, 48);
  EXPECT_GT(r.replies, 3000u);
  EXPECT_GT(r.response_rate, 0.9 * 48 * 30.0);
}

TEST(ReplyEquivalenceE2E, DeltasDecodeLosslessly) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.delta_snapshots = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(5), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  uint64_t full = 0, delta = 0, undecodable = 0;
  for (const auto& c : driver.clients()) {
    full += c->metrics().full_snapshots;
    delta += c->metrics().delta_snapshots;
    undecodable += c->metrics().undecodable_deltas;
  }
  EXPECT_GT(delta, full * 5);  // steady state is delta-encoded
  EXPECT_EQ(undecodable, 0u);  // every span-encoded delta decodes
}

// Loss forces baseline misses, full-snapshot fallbacks, and client slot
// churn through reconnects — replies must stay decodable.
TEST(ReplyEquivalenceE2E, SurvivesLossAndChurn) {
  vt::SimPlatform p;
  net::VirtualNetwork::Config nc;
  nc.loss = 0.15f;
  nc.seed = 3;
  net::VirtualNetwork net(p, nc);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.delta_snapshots = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(6), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  uint64_t replies = 0, undecodable = 0;
  for (const auto& c : driver.clients()) {
    replies += c->metrics().replies;
    undecodable += c->metrics().undecodable_deltas;
  }
  EXPECT_GT(replies, 2000u);
  EXPECT_LT(static_cast<double>(undecodable),
            static_cast<double>(replies) * 0.1);
}

}  // namespace
}  // namespace qserv
