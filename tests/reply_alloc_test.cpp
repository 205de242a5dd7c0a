// Reply-path allocation discipline (DESIGN.md §15): sealed event blocks
// make the per-frame reply-buffer fan-out a refcount bump instead of N
// event copies, and the view refresh, sweep and span encoders reuse their
// buffers, so a steady-state reply allocates nothing where the oracle
// encoders (tests/reply_oracle.hpp) allocate per message. This binary
// includes the bench allocation counter (global operator new override) so
// the assertions count real heap traffic.
#include <gtest/gtest.h>

#include "bench/alloc_counter.hpp"
#include "src/core/global_state.hpp"
#include "src/harness/experiment.hpp"
#include "src/sim/snapshot.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::core {
namespace {

net::GameEvent ev(uint8_t kind) { return net::GameEvent{kind, 0, 0, {}}; }

// Sealed blocks flow through reply buffers by reference, oldest first,
// and null/empty blocks are dropped at the door.
TEST(ReplyAlloc, SealedBlocksDrainInOrder) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  ReplyBuffer rb(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    gsb.emit(ev(1));
    gsb.emit(ev(2));
    const SealedEvents block = gsb.seal_frame();
    ASSERT_TRUE(block);
    EXPECT_EQ(block->size(), 2u);

    rb.append_block(block);
    gsb.emit(ev(3));
    rb.append_block(gsb.seal_frame());  // the live buffer restarted empty
    rb.append_block(nullptr);
    rb.append_block(gsb.seal_frame());  // empty frame: dropped
    EXPECT_EQ(rb.size(), 3u);

    std::vector<net::GameEvent> out;
    rb.drain_into(out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, 1);
    EXPECT_EQ(out[1].kind, 2);
    EXPECT_EQ(out[2].kind, 3);
    EXPECT_EQ(rb.size(), 0u);
  });
  p.run();
}

// Once the pool is warm and every frame's readers let go, sealing and
// fanning out a frame's events performs zero heap allocations.
TEST(ReplyAlloc, SealFrameSteadyStateAllocFree) {
  vt::SimPlatform p;
  GlobalStateBuffer gsb(p);
  ReplyBuffer rb0(p), rb1(p), rb2(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    std::vector<net::GameEvent> drained;
    drained.reserve(64);
    SealedEvents held;  // the reply phase holds the frame's block too
    const auto frame = [&] {
      for (int i = 0; i < 8; ++i) gsb.emit(ev(uint8_t(1 + i)));
      held = gsb.seal_frame();
      rb0.append_block(held);
      rb1.append_block(held);
      rb2.append_block(held);
      drained.clear();
      rb0.drain_into(drained);
      rb1.drain_into(drained);
      rb2.drain_into(drained);
      EXPECT_EQ(drained.size(), 24u);
    };
    for (int warm = 0; warm < 4; ++warm) frame();
    const uint64_t before = bench::heap_allocs();
    for (int hot = 0; hot < 32; ++hot) frame();
    EXPECT_EQ(bench::heap_allocs() - before, 0u)
        << "sealing/fan-out must reuse pooled blocks and capacities";
  });
  p.run();
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
                          events, snap, rows);
      wire.clear();
      if ((i & 1) != 0) {
        sim::write_delta_snapshot(snap, world.view(), rows, baselines[i],
                                  frame - 1, scratch, wire);
      } else {
        sim::write_full_snapshot(snap, world.view(), rows, wire);
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
