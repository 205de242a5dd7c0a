// Reply-path allocation discipline (DESIGN.md §15): the event log makes
// the per-frame event fan-out one span copy per reply instead of a buffer
// update per client, the world phase reuses world-owned containers, the
// view refresh, sweep and span encoders reuse their buffers, and so do
// the lock plan and the governor's window, so a steady-state reply
// allocates nothing where the oracle encoders (tests/reply_oracle.hpp)
// allocate per message. This binary includes the
// bench allocation counter (global operator new override) so the
// assertions count real heap traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "bench/alloc_counter.hpp"
#include "src/core/global_state.hpp"
#include "src/core/lock_manager.hpp"
#include "src/harness/experiment.hpp"
#include "src/resilience/governor.hpp"
#include "src/sim/snapshot.hpp"
#include "src/spatial/areanode_tree.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::core {
namespace {

net::GameEvent ev(uint8_t kind) { return net::GameEvent{kind, 0, 0, {}}; }

// Three clients complete through different frames each read their own
// tail of the log, oldest frame first; frames without events log nothing.
TEST(ReplyAlloc, EventLogReadsEachClientsTailInOrder) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    gsb.emit(ev(1));
    gsb.emit(ev(2));
    EXPECT_EQ(gsb.seal_frame(1), 2u);
    EXPECT_EQ(gsb.seal_frame(2), 0u);  // empty frame: no entry
    gsb.emit(ev(3));
    EXPECT_EQ(gsb.seal_frame(3), 1u);
    EXPECT_EQ(gsb.logged_frames(), 2u);

    auto out = net::decode_span(gsb.events_after(0));  // joined before 1
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, 1);
    EXPECT_EQ(out[1].kind, 2);
    EXPECT_EQ(out[2].kind, 3);
    out = net::decode_span(gsb.events_after(2));  // replied at frame 2
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, 3);
    // Replied this frame already.
    EXPECT_EQ(gsb.events_after(3).count, 0u);
  });
  p.run();
}

// Once warm, sealing frames, reading three clients' tails and trimming
// what they all consumed performs zero heap allocations.
TEST(ReplyAlloc, EventLogSteadyStateAllocFree) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    uint64_t through[3] = {0, 0, 0};
    uint64_t frame = 0;
    const auto run_frame = [&] {
      ++frame;
      for (int i = 0; i < 8; ++i) gsb.emit(ev(uint8_t(1 + i)));
      gsb.seal_frame(frame);
      if (gsb.trim_due())
        gsb.trim_through(std::min({through[0], through[1], through[2]}));
      // Client k replies every k+1 frames.
      for (int k = 0; k < 3; ++k) {
        if (frame % static_cast<uint64_t>(k + 1) != 0) continue;
        const net::EventSpan span = gsb.events_after(through[k]);
        EXPECT_EQ(span.count, 8u * (frame - through[k]));
        EXPECT_EQ(span.data[0], 1);  // each read starts at a frame's first
        through[k] = frame;
      }
    };
    for (int warm = 0; warm < 200; ++warm) run_frame();
    const uint64_t before = bench::heap_allocs();
    for (int hot = 0; hot < 400; ++hot) run_frame();
    EXPECT_EQ(bench::heap_allocs() - before, 0u)
        << "sealing, reading and trimming must reuse the log's capacity";
    EXPECT_LT(gsb.logged_frames(), 200u);  // trimmed as it goes
  });
  p.run();
}

// The governor's p95 works in a buffer sized at construction: no frame
// allocates, from the first through several full windows, while the
// ladder steps down under slow frames and back up under fast ones.
TEST(ReplyAlloc, GovernorOnFrameAllocFree) {
  resilience::Config cfg;
  cfg.governor = true;
  cfg.window = 32;
  cfg.dwell = 4;
  resilience::FrameGovernor gov(cfg);
  uint64_t allocs = 0;
  for (int frame = 0; frame < 5 * cfg.window; ++frame) {
    const bool slow = frame < 3 * cfg.window;
    const vt::Duration t = vt::millis(slow ? 40 + frame % 7 : 5 + frame % 3);
    const uint64_t before = bench::heap_allocs();
    gov.on_frame(t);
    allocs += bench::heap_allocs() - before;
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(gov.counters().steps_down, 0u);
  EXPECT_GT(gov.counters().steps_up, 0u);
}

// Once warm, planning, acquiring and releasing a move's region locks
// allocates nothing, with attacking and plain moves alternating (an
// attack plans a second, long-range region) under both locking policies.
TEST(ReplyAlloc, LockPlanAcquireReleaseAllocFree) {
  vt::SimPlatform p;
  const Aabb bounds{{-1024, -1024, 0}, {1024, 1024, 256}};
  spatial::AreanodeTree tree(bounds, 4);
  LockManager lm(p, tree, sim::CostModel{});
  p.spawn("t", vt::Domain::kServer, [&] {
    Rng rng(9);
    std::array<sim::Entity, 16> players;
    for (sim::Entity& e : players) {
      e.type = sim::EntityType::kPlayer;
      e.origin = rng.point_in({-900, -900, 24}, {900, 900, 40});
      e.yaw_deg = rng.uniform(0.0f, 360.0f);
      e.mins = sim::kPlayerMins;
      e.maxs = sim::kPlayerMaxs;
    }
    std::vector<int> requests;
    LockManager::Region region;
    ThreadStats st;
    uint64_t hot_allocs = 0;
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < 2 * players.size(); ++i) {
        const LockPolicy policy =
            (i / players.size()) != 0 ? LockPolicy::kConservative
                                      : LockPolicy::kOptimized;
        net::MoveCmd cmd;
        cmd.msec = 30;
        cmd.forward = 200;
        cmd.yaw_deg = players[i % players.size()].yaw_deg;
        cmd.buttons = (i & 1) != 0 ? net::kButtonAttack
                      : (i & 2) != 0 ? net::kButtonThrow
                                     : 0;
        const uint64_t before = bench::heap_allocs();
        lm.plan_request(policy, players[i % players.size()], cmd, requests);
        lm.acquire(requests, 0, st, region);
        lm.release(region);
        if (round > 0) hot_allocs += bench::heap_allocs() - before;
      }
    }
    EXPECT_EQ(hot_allocs, 0u);
    EXPECT_GT(st.locks.relocks, 0u);  // attacks re-locked their own leaves
  });
  p.run();
}

class ReservedSink : public sim::EventSink {
 public:
  ReservedSink() { events.reserve(4096); }
  void emit(const net::GameEvent& e) override { events.push_back(e); }
  std::vector<net::GameEvent> events;
};

// Once warm, the world phase — materializing grenades, stepping them,
// exploding them and respawning taken items — allocates nothing.
TEST(ReplyAlloc, WorldPhaseSteadyStateAllocFree) {
  const auto map = spatial::make_large_deathmatch(3);
  sim::World world(map, sim::World::Config{4, 3});
  world.reserve_entities(world.entity_storage_size() + 64);
  ASSERT_FALSE(map.spawns.empty());
  ASSERT_FALSE(world.item_ids().empty());
  ReservedSink sink;
  vt::TimePoint t{};
  uint64_t hot_allocs = 0;
  size_t max_live = 0;
  int respawned = 0;
  for (uint64_t frame = 1; frame <= 240; ++frame) {
    // Request-phase work, outside the count: a grenade thrown on an
    // 8-frame cycle of directions from a fixed spawn point, and every
    // item taken every 16th frame.
    sim::World::ProjectileSpec spec;
    spec.origin = map.spawns[0].origin + Vec3{0, 0, 30};
    const float a = static_cast<float>(frame % 8) * 0.785398f;
    spec.dir = Vec3{std::cos(a), std::sin(a), 0};
    spec.expire_at = t + vt::millis(400);
    spec.order = frame;
    world.queue_projectile(spec);
    if (frame % 16 == 0) {
      for (const uint32_t id : world.item_ids()) {
        sim::Entity& item = *world.get(id);
        item.available = false;
        item.respawn_at = t + vt::millis(200);
        world.mark_dirty(id);
      }
    }
    const auto taken = [&] {
      return std::count_if(
          world.item_ids().begin(), world.item_ids().end(),
          [&](uint32_t id) { return !world.get(id)->available; });
    };
    const auto taken_before = taken();
    const uint64_t before = bench::heap_allocs();
    world.world_phase(t, vt::millis(30), sink);
    if (frame > 80) hot_allocs += bench::heap_allocs() - before;
    max_live = std::max(max_live, world.projectile_ids().size());
    respawned += static_cast<int>(taken_before - taken());
    sink.events.clear();
    world.refresh_view();
    t = t + vt::millis(30);
  }
  EXPECT_EQ(hot_allocs, 0u);
  EXPECT_GT(max_live, 1u);   // several grenades in flight at once
  EXPECT_GT(respawned, 0);  // items came back through the world phase
}

// Once warm, refreshing the view, sweeping and span-encoding full and
// delta replies allocates nothing; the oracle encoders, which build a
// fresh vector per message, allocate every time.
TEST(ReplyAlloc, SweepAndEncodeSteadyStateAllocFree) {
  const auto map = spatial::make_large_deathmatch(3);
  sim::World world(map, sim::World::Config{4, 3});
  Rng rng(5);
  std::vector<uint32_t> players;
  for (int i = 0; i < 32; ++i) {
    sim::Entity& p = world.spawn_player("p");
    p.origin = rng.point_in({-1200, -1200, 0}, {1200, 1200, 40});
    world.relink(p);
    players.push_back(p.id);
  }
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sim::EncodeScratch scratch;
  net::ByteWriter wire;
  std::vector<std::vector<net::EntityUpdate>> baselines(players.size());
  const std::vector<net::GameEvent> events{ev(1), ev(2)};
  const net::EventRecords records(events);
  uint64_t path_allocs = 0, oracle_allocs = 0;
  for (uint32_t frame = 1; frame <= 40; ++frame) {
    const bool hot = frame > 8;
    // Move a few players (outside the count: this is exec-phase work).
    for (size_t i = frame % 4; i < players.size(); i += 4) {
      sim::Entity& p = *world.get(players[i]);
      p.yaw_deg = static_cast<float>(frame);
      world.mark_dirty(p.id);
    }
    uint64_t before = bench::heap_allocs();
    world.refresh_view();
    for (size_t i = 0; i < players.size(); ++i) {
      sim::sweep_snapshot(world, *world.get(players[i]), frame, frame, 0,
                          records.count, snap, rows);
      wire.clear();
      if ((i & 1) != 0) {
        sim::write_delta_snapshot(snap, world.view(), rows, baselines[i],
                                  frame - 1, records.span(), scratch, wire);
      } else {
        sim::write_full_snapshot(snap, world.view(), rows, records.span(),
                                 wire);
      }
    }
    if (hot) path_allocs += bench::heap_allocs() - before;
    before = bench::heap_allocs();
    for (size_t i = 0; i < players.size(); ++i) {
      sim::build_snapshot(world, *world.get(players[i]), frame, frame, 0,
                          events, snap);
      const auto bytes = (i & 1) != 0 ? net::encode_delta(snap, baselines[i],
                                                          frame - 1)
                                      : net::encode(snap);
      EXPECT_FALSE(bytes.empty());
      baselines[i] = snap.entities;
    }
    if (hot) oracle_allocs += bench::heap_allocs() - before;
  }
  EXPECT_EQ(path_allocs, 0u);
  EXPECT_GT(oracle_allocs, 32u * 32u);
}

// End to end: the harness exports the allocation rate, and a
// delta-encoded game stays within a fixed allocation budget per frame,
// server and clients together (unsaturated, so a frame carries about one
// reply). The span path measures ~64 here; encoding each reply into a
// fresh vector, as the oracle encoders do, measured ~154.
TEST(ReplyAllocE2E, AllocationsPerFrameBounded) {
  auto cfg = harness::paper_config(harness::ServerMode::kSequential, 1, 32,
                                   LockPolicy::kNone);
  cfg.server.delta_snapshots = true;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(3);
  const auto r = harness::run_experiment(cfg);
  ASSERT_GE(r.allocs_per_frame, 0.0);  // probe registered and counting
  EXPECT_EQ(r.connected, 32);
  EXPECT_LT(r.allocs_per_frame, 100.0);
}

}  // namespace
}  // namespace qserv::core
