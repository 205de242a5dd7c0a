#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/global_state.hpp"
#include "src/core/lock_manager.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/sim_platform.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::core {
namespace {

using vt::Domain;
using vt::millis;
using vt::micros;

struct Fixture {
  Fixture() : tree(world_bounds, 4), lm(platform, tree, sim::CostModel{}) {}

  vt::SimPlatform platform;
  Aabb world_bounds{{-1024, -1024, 0}, {1024, 1024, 256}};
  spatial::AreanodeTree tree;
  LockManager lm;
};

sim::Entity player_at(const Vec3& origin) {
  sim::Entity e;
  e.id = 1;
  e.type = sim::EntityType::kPlayer;
  e.origin = origin;
  e.mins = sim::kPlayerMins;
  e.maxs = sim::kPlayerMaxs;
  e.health = 100;
  return e;
}

net::MoveCmd plain_move() {
  net::MoveCmd c;
  c.msec = 30;
  return c;
}

// The leaves plan_request adds for `cmd`'s long-range region: what it
// plans after the short-range region the same move without buttons plans.
std::vector<int> long_range(Fixture& f, LockPolicy policy,
                            const sim::Entity& p, const net::MoveCmd& cmd) {
  net::MoveCmd plain = cmd;
  plain.buttons = 0;
  std::vector<int> short_range, all;
  f.lm.plan_request(policy, p, plain, short_range);
  f.lm.plan_request(policy, p, cmd, all);
  EXPECT_GE(all.size(), short_range.size());
  EXPECT_TRUE(std::equal(short_range.begin(), short_range.end(), all.begin()));
  return {all.begin() + static_cast<ptrdiff_t>(short_range.size()),
          all.end()};
}

TEST(LockManagerPlan, NonePolicyLocksNothing) {
  Fixture f;
  std::vector<int> requests{7};  // replaced, not appended to
  const auto p = player_at({100, 100, 28});
  f.lm.plan_request(LockPolicy::kNone, p, plain_move(), requests);
  EXPECT_TRUE(requests.empty());
}

TEST(LockManagerPlan, ShortRangeMoveLocksLocalLeaves) {
  Fixture f;
  std::vector<int> requests;
  const auto p = player_at({500, 500, 28});  // well inside one quadrant
  f.lm.plan_request(LockPolicy::kConservative, p, plain_move(), requests);
  EXPECT_GE(requests.size(), 1u);
  EXPECT_LE(requests.size(), 4u);  // small region, not the whole map
}

TEST(LockManagerPlan, ConservativeAttackLocksWholeMap) {
  Fixture f;
  auto p = player_at({500, 500, 28});
  auto cmd = plain_move();
  cmd.buttons = net::kButtonAttack;
  const auto leaves = long_range(f, LockPolicy::kConservative, p, cmd);
  EXPECT_EQ(static_cast<int>(leaves.size()), f.tree.leaf_count());
}

TEST(LockManagerPlan, OptimizedAttackLocksDirectionalSlice) {
  Fixture f;
  auto p = player_at({-900, -900, 28});  // corner, aiming +x
  p.yaw_deg = 0.0f;
  auto cmd = plain_move();
  cmd.yaw_deg = 0.0f;
  cmd.buttons = net::kButtonAttack;
  const auto leaves = long_range(f, LockPolicy::kOptimized, p, cmd);
  // A corner shot along an axis covers one row of leaves, far fewer than
  // the whole map.
  EXPECT_LT(static_cast<int>(leaves.size()), f.tree.leaf_count());
  EXPECT_GE(leaves.size(), 2u);
}

TEST(LockManagerPlan, OptimizedThrowLocksExpandedBox) {
  Fixture f;
  auto p = player_at({0, 0, 28});  // dead centre: expansion crosses planes
  auto cmd = plain_move();
  cmd.buttons = net::kButtonThrow;
  const auto leaves = long_range(f, LockPolicy::kOptimized, p, cmd);
  EXPECT_GE(leaves.size(), 4u);  // crosses the central planes
  EXPECT_LT(static_cast<int>(leaves.size()), f.tree.leaf_count());
}

TEST(LockManager, AcquireCountsDistinctAndRelocks) {
  Fixture f;
  ThreadStats st;
  f.platform.spawn("t", Domain::kServer, [&] {
    LockManager::Region r;
    // Two overlapping regions: {15,16,17} then {16,17,18}.
    f.lm.acquire({15, 16, 17, 16, 17, 18}, 0, st, r);
    EXPECT_EQ(r.leaves().size(), 4u);
    f.lm.release(r);
  });
  f.platform.run();
  EXPECT_EQ(st.locks.lock_requests, 6u);
  EXPECT_EQ(st.locks.distinct_leaves, 4u);
  EXPECT_EQ(st.locks.relocks, 2u);
  EXPECT_EQ(st.locks.requests_locked, 1u);
}

TEST(LockManager, RegionsExcludeEachOther) {
  Fixture f;
  ThreadStats st0, st1;
  std::vector<int> order;
  f.platform.spawn("a", Domain::kServer, [&] {
    LockManager::Region r;
    f.lm.acquire({15, 16}, 0, st0, r);
    order.push_back(0);
    f.platform.compute(millis(5));
    order.push_back(1);
    f.lm.release(r);
  });
  f.platform.spawn("b", Domain::kServer, [&] {
    f.platform.sleep_for(millis(1));
    LockManager::Region r;
    f.lm.acquire({16, 17}, 1, st1, r);  // overlaps on leaf 16
    order.push_back(2);
    f.lm.release(r);
  });
  f.platform.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GT(st1.breakdown.lock_leaf.ns, millis(3).ns);  // waited for a
  EXPECT_LT(st0.breakdown.lock_leaf.ns, micros(50).ns);  // a never waited
}

TEST(LockManager, DisjointRegionsRunConcurrently) {
  Fixture f;
  ThreadStats st0, st1;
  vt::TimePoint done0{}, done1{};
  f.platform.spawn("a", Domain::kServer, [&] {
    LockManager::Region r;
    f.lm.acquire({15, 16}, 0, st0, r);
    f.platform.compute(millis(5));
    f.lm.release(r);
    done0 = f.platform.now();
  });
  f.platform.spawn("b", Domain::kServer, [&] {
    LockManager::Region r;
    f.lm.acquire({20, 21}, 1, st1, r);
    f.platform.compute(millis(5));
    f.lm.release(r);
    done1 = f.platform.now();
  });
  f.platform.run();
  // Both finish around 5 ms (4-core machine, no lock interference).
  EXPECT_LT(done0.ns, millis(7).ns);
  EXPECT_LT(done1.ns, millis(7).ns);
  // Lock time contains only the fixed acquisition overhead, no waiting.
  EXPECT_LT(st1.breakdown.lock_leaf.ns, micros(50).ns);
}

// Deadlock-freedom stress: many fibers locking random overlapping leaf
// sets; canonical ordering must prevent any deadlock (the run completing
// is the assertion — the platform aborts on deadlock).
TEST(LockManager, RandomOverlappingRegionsNeverDeadlock) {
  Fixture f;
  std::vector<ThreadStats> st(8);
  Rng seeds(42);
  for (int t = 0; t < 8; ++t) {
    const uint64_t seed = seeds.next_u64();
    std::string name = "t";
    name += std::to_string(t);
    f.platform.spawn(name, Domain::kServer, [&f, &st, t, seed] {
      Rng rng(seed);
      for (int i = 0; i < 200; ++i) {
        // Random subset of the 16 leaves (node indices 15..30).
        std::vector<int> leaves;
        for (int leaf = 15; leaf <= 30; ++leaf) {
          if (rng.chance(0.25f)) leaves.push_back(leaf);
        }
        if (leaves.empty()) leaves.push_back(15 + static_cast<int>(rng.below(16)));
        LockManager::Region r;
        f.lm.acquire(leaves, t, st[static_cast<size_t>(t)], r);
        f.platform.compute(micros(rng.range(5, 50)));
        f.lm.release(r);
      }
    });
  }
  f.platform.run();  // aborts on deadlock
  uint64_t total = 0;
  for (const auto& s : st) total += s.locks.requests_locked;
  EXPECT_EQ(total, 8u * 200u);
}

TEST(LockManager, FrameHarvestTracksSharing) {
  Fixture f;
  ThreadStats st0, st1;
  FrameLockStats fls;
  f.platform.spawn("a", Domain::kServer, [&] {
    LockManager::Region r;
    f.lm.acquire({15, 16}, 0, st0, r);
    f.platform.compute(millis(1));
    f.lm.release(r);
  });
  f.platform.spawn("b", Domain::kServer, [&] {
    f.platform.sleep_for(millis(2));
    LockManager::Region r;
    f.lm.acquire({16, 17}, 1, st1, r);
    f.lm.release(r);
  });
  f.platform.run();
  f.lm.frame_harvest(fls);
  // 3 of 16 leaves locked; 1 of 16 (leaf 16) by both threads.
  EXPECT_NEAR(fls.leaves_locked_pct.mean(), 3.0 / 16.0, 1e-9);
  EXPECT_NEAR(fls.leaves_shared_pct.mean(), 1.0 / 16.0, 1e-9);
  f.lm.frame_reset();
  FrameLockStats fls2;
  f.lm.frame_harvest(fls2);
  EXPECT_NEAR(fls2.leaves_locked_pct.mean(), 0.0, 1e-9);
}

TEST(LockManager, ListLocksAttributeWaitByNodeKind) {
  Fixture f;
  ThreadStats st0, st1;
  f.platform.spawn("a", Domain::kServer, [&] {
    LockManager::ListLockContext ctx(f.lm, st0);
    ctx.lock_list(0);  // root (parent)
    f.platform.compute(millis(2));
    ctx.unlock_list(0);
  });
  f.platform.spawn("b", Domain::kServer, [&] {
    f.platform.sleep_for(micros(100));
    LockManager::ListLockContext ctx(f.lm, st1);
    ctx.lock_list(0);
    ctx.unlock_list(0);
    ctx.lock_list(20);  // a leaf
    ctx.unlock_list(20);
  });
  f.platform.run();
  EXPECT_GT(st1.breakdown.lock_parent.ns, millis(1).ns);
  EXPECT_EQ(st1.locks.parent_list_locks, 2u);
  // The uncontended holder pays only the small list-lock overhead.
  EXPECT_LT(st0.breakdown.lock_parent.ns, micros(10).ns);
}

// Sealing encodes the frame's events onto the log and empties the live
// buffer: the next frame starts from nothing.
TEST(GlobalStateBuffer, SealEmptiesTheLiveBuffer) {
  vt::SimPlatform p;
  GlobalStateBuffer buf(p);
  p.spawn("t", Domain::kServer, [&] {
    buf.emit(net::GameEvent{1, 2, 3, {}});
    buf.emit(net::GameEvent{4, 5, 6, {}});
    EXPECT_EQ(buf.seal_frame(1), 2u);
    auto events = net::decode_span(buf.events_after(0));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].kind, 4);
    EXPECT_EQ(buf.seal_frame(2), 0u);  // nothing emitted: no entry
    EXPECT_EQ(buf.logged_frames(), 1u);
    buf.emit(net::GameEvent{7, 0, 0, {}});
    EXPECT_EQ(buf.seal_frame(3), 1u);
    events = net::decode_span(buf.events_after(1));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, 7);
  });
  p.run();
}

// A client's reply carries every logged frame after the one its events
// are complete through, oldest first; trimming drops only frames every
// client has consumed.
TEST(GlobalStateBuffer, EventLogReadsAfterFrameAndTrims) {
  vt::SimPlatform p;
  GlobalStateBuffer buf(p);
  p.spawn("t", Domain::kServer, [&] {
    buf.emit(net::GameEvent{1, 0, 0, {}});
    buf.seal_frame(3);
    buf.emit(net::GameEvent{2, 0, 0, {}});
    buf.emit(net::GameEvent{3, 0, 0, {}});
    buf.seal_frame(5);
    buf.seal_frame(6);  // no events: no entry
    buf.emit(net::GameEvent{4, 0, 0, {}});
    buf.seal_frame(7);
    EXPECT_EQ(buf.logged_frames(), 3u);
    const auto kinds_after = [&](uint64_t through) {
      std::vector<int> kinds;
      for (const auto& e : net::decode_span(buf.events_after(through)))
        kinds.push_back(e.kind);
      return kinds;
    };
    EXPECT_EQ(kinds_after(0), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(kinds_after(3), (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(kinds_after(4), (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(kinds_after(6), (std::vector<int>{4}));
    EXPECT_EQ(kinds_after(7), (std::vector<int>{}));
    buf.trim_through(5);
    EXPECT_EQ(buf.logged_frames(), 1u);
    EXPECT_EQ(kinds_after(5), (std::vector<int>{4}));
    EXPECT_FALSE(buf.trim_due());
  });
  p.run();
}

TEST(Config, PolicyNames) {
  EXPECT_STREQ(lock_policy_name(LockPolicy::kConservative), "conservative");
  EXPECT_STREQ(lock_policy_name(LockPolicy::kOptimized), "optimized");
  EXPECT_STREQ(assign_policy_name(AssignPolicy::kRegion), "region");
}

}  // namespace
}  // namespace qserv::core
