#include <gtest/gtest.h>

#include <vector>

#include "src/sim/move.hpp"
#include "src/sim/combat.hpp"
#include "src/sim/snapshot.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::sim {
namespace {

class CollectEvents : public EventSink {
 public:
  void emit(const net::GameEvent& e) override { events.push_back(e); }
  std::vector<net::GameEvent> events;
};

// The reply phase's sweep over a freshly refreshed entity view.
SnapshotStats sweep(World& w, const Entity& player, uint32_t frame,
                    uint32_t ack, int64_t echo, net::Snapshot& snap) {
  w.refresh_view();
  std::vector<uint32_t> rows;
  return sweep_snapshot(w, player, frame, ack, echo, 0, snap, rows);
}

net::MoveCmd forward_cmd(float yaw = 0.0f, uint16_t msec = 30) {
  net::MoveCmd c;
  c.yaw_deg = yaw;
  c.forward = kMaxPlayerSpeed;
  c.msec = msec;
  return c;
}

TEST(MoveBounds, CoversMaximumTravel) {
  World w(spatial::make_arena(), {});
  Entity& p = w.spawn_player("a");
  const auto cmd = forward_cmd();
  const Aabb b = move_bounds(p, cmd);
  // The bounds must contain the player's box wherever a 30 ms move could
  // take it (~9.6 units at max speed).
  EXPECT_TRUE(b.contains(p.bounds()));
  EXPECT_TRUE(b.contains(p.bounds().swept({9.6f, 0, 0})));
  EXPECT_TRUE(b.contains(p.bounds().swept({0, -9.6f, 0})));
}

TEST(ExecuteMove, MovesInCommandDirection) {
  World w(spatial::make_arena(), {});
  Entity& p = w.spawn_player("a");
  p.on_ground = true;
  const Vec3 start = p.origin;
  for (int i = 0; i < 30; ++i)
    execute_move(w, p, forward_cmd(0.0f), {}, nullptr, nullptr);
  EXPECT_GT(p.origin.x, start.x + 30.0f);
  EXPECT_NEAR(p.origin.y, start.y, 1.0f);
}

TEST(ExecuteMove, YawSelectsDirection) {
  World w(spatial::make_arena(), {});
  Entity& p = w.spawn_player("a");
  p.on_ground = true;
  const Vec3 start = p.origin;
  for (int i = 0; i < 30; ++i)
    execute_move(w, p, forward_cmd(90.0f), {}, nullptr, nullptr);
  EXPECT_GT(p.origin.y, start.y + 30.0f);
}

TEST(ExecuteMove, GravityPullsAirbornePlayersDown) {
  World w(spatial::make_arena(), {});
  Entity& p = w.spawn_player("a");
  p.origin.z += 100.0f;
  p.on_ground = false;
  w.relink(p);
  net::MoveCmd idle;
  idle.msec = 30;
  for (int i = 0; i < 60 && !p.on_ground; ++i)
    execute_move(w, p, idle, {}, nullptr, nullptr);
  EXPECT_TRUE(p.on_ground);
  // Standing height: feet (origin + mins.z) on the floor at z=0.
  EXPECT_NEAR(p.origin.z, -kPlayerMins.z, 1.0f);
}

TEST(ExecuteMove, JumpLeavesGroundThenLands) {
  World w(spatial::make_arena(), {});
  Entity& p = w.spawn_player("a");
  p.on_ground = true;
  net::MoveCmd jump;
  jump.msec = 30;
  jump.buttons = net::kButtonJump;
  execute_move(w, p, jump, {}, nullptr, nullptr);
  EXPECT_FALSE(p.on_ground);
  const float base = p.origin.z;
  net::MoveCmd idle;
  idle.msec = 30;
  execute_move(w, p, idle, {}, nullptr, nullptr);
  EXPECT_GT(p.origin.z, base);  // still rising
  for (int i = 0; i < 120 && !p.on_ground; ++i)
    execute_move(w, p, idle, {}, nullptr, nullptr);
  EXPECT_TRUE(p.on_ground);
}

TEST(ExecuteMove, WallsStopMotion) {
  World w(spatial::make_arena(512), {});
  Entity& p = w.spawn_player("a");
  p.on_ground = true;
  // Run east into the arena wall for a long time.
  for (int i = 0; i < 400; ++i)
    execute_move(w, p, forward_cmd(0.0f), {}, nullptr, nullptr);
  EXPECT_FALSE(w.collision().box_solid(p.origin, p.mins, p.maxs));
  EXPECT_LT(p.origin.x, w.map().bounds.maxs.x);
}

TEST(ExecuteMove, SlidesAlongWalls) {
  World w(spatial::make_arena(2048), {});
  Entity& p = w.spawn_player("a");
  p.on_ground = true;
  // Park the player against the east wall, then run diagonally into it:
  // x stays pinned, y keeps sliding.
  for (int i = 0; i < 600; ++i)
    execute_move(w, p, forward_cmd(0.0f), {}, nullptr, nullptr);
  const float x_at_wall = p.origin.x;
  const float y_start = p.origin.y;
  for (int i = 0; i < 60; ++i)
    execute_move(w, p, forward_cmd(30.0f), {}, nullptr, nullptr);
  EXPECT_NEAR(p.origin.x, x_at_wall, 1.0f);
  EXPECT_GT(p.origin.y, y_start + 50.0f);
}

// Property sweep: random movement never ends inside solid geometry and
// never escapes the world.
class MoveFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MoveFuzzTest, NeverPenetratesOrEscapes) {
  const auto map = spatial::make_large_deathmatch(7);
  World w(map, {4, GetParam()});
  std::vector<uint32_t> ids;
  for (int i = 0; i < 8; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    ids.push_back(w.spawn_player(name).id);
  }
  Rng rng(GetParam() * 977 + 13);
  vt::TimePoint now{};
  for (int step = 0; step < 400; ++step) {
    Entity* p = w.get(ids[rng.below(ids.size())]);
    ASSERT_NE(p, nullptr);
    net::MoveCmd cmd;
    cmd.yaw_deg = rng.uniform(0.0f, 360.0f);
    cmd.forward = rng.uniform(-kMaxPlayerSpeed, kMaxPlayerSpeed);
    cmd.side = rng.uniform(-kMaxPlayerSpeed, kMaxPlayerSpeed);
    cmd.msec = static_cast<uint16_t>(rng.range(10, 60));
    if (rng.chance(0.1f)) cmd.buttons |= net::kButtonJump;
    now += vt::millis(5);
    execute_move(w, *p, cmd, now, nullptr, nullptr);
    ASSERT_FALSE(w.collision().box_solid(p->origin, p->mins, p->maxs))
        << "player stuck in wall at " << p->origin.str() << " step " << step;
    ASSERT_TRUE(w.map().bounds.contains(p->origin))
        << "player escaped the world at " << p->origin.str();
    ASSERT_EQ(p->areanode, w.tree().link_node_for(p->bounds()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ExecuteMove, PlayersBlockEachOther) {
  World w(spatial::make_arena(1024), {});
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  b.origin = a.origin + Vec3{64, 0, 0};
  w.relink(b);
  a.on_ground = true;
  // Run straight at b; a must stop before overlapping it.
  for (int i = 0; i < 100; ++i)
    execute_move(w, a, forward_cmd(0.0f), {}, nullptr, nullptr);
  const Aabb abox = a.bounds(), bbox = b.bounds();
  const bool overlap_open =
      abox.mins.x < bbox.maxs.x && abox.maxs.x > bbox.mins.x &&
      abox.mins.y < bbox.maxs.y && abox.maxs.y > bbox.mins.y &&
      abox.mins.z < bbox.maxs.z && abox.maxs.z > bbox.mins.z;
  EXPECT_FALSE(overlap_open);
  EXPECT_LT(std::abs(a.origin.x - b.origin.x), 40.0f);  // got close though
}

TEST(ExecuteMove, PicksUpItemsOnPath) {
  World w(spatial::make_arena(1024), {});
  Entity& p = w.spawn_player("a");
  p.health = 50;
  Entity& item = w.spawn_entity(EntityType::kItem);
  item.item = spatial::ItemType::kHealth;
  item.origin = p.origin + Vec3{40, 0, 0};
  item.mins = {-12, -12, -24};
  item.maxs = {12, 12, 24};
  w.link(item);
  p.on_ground = true;
  CollectEvents ev;
  MoveStats total;
  for (int i = 0; i < 40 && p.health == 50; ++i) {
    const auto s = execute_move(w, p, forward_cmd(0.0f), {}, nullptr, &ev);
    total.touches += s.touches;
  }
  EXPECT_EQ(p.health, 75);
  EXPECT_GE(total.touches, 1);
  EXPECT_FALSE(item.available);
}

TEST(ExecuteMove, TeleporterRelocatesAndRelinks) {
  const auto map = spatial::make_large_deathmatch(7);
  World w(map, {});
  ASSERT_GE(map.teleporters.size(), 2u);
  Entity& p = w.spawn_player("a");
  // Stand right next to the pad and walk onto it.
  const auto& tele = map.teleporters[0];
  p.origin = tele.origin + Vec3{-30, 0, 0};
  p.on_ground = true;
  w.relink(p);
  CollectEvents ev;
  bool teleported = false;
  for (int i = 0; i < 60 && !teleported; ++i) {
    teleported =
        execute_move(w, p, forward_cmd(0.0f), {}, nullptr, &ev).teleported;
  }
  ASSERT_TRUE(teleported);
  EXPECT_NEAR(dist(p.origin, tele.destination), 0.0f, 20.0f);
  EXPECT_EQ(p.areanode, w.tree().link_node_for(p.bounds()));
}

TEST(ExecuteMove, AttackButtonsFireWeapons) {
  World w(spatial::make_arena(1024), {});
  Entity& p = w.spawn_player("a");
  net::MoveCmd cmd;
  cmd.msec = 30;
  cmd.buttons = net::kButtonAttack;
  auto s = execute_move(w, p, cmd, {}, nullptr, nullptr);
  EXPECT_TRUE(s.fired_hitscan);
  cmd.buttons = net::kButtonThrow;
  s = execute_move(w, p, cmd, vt::TimePoint{} + kAttackCooldown, nullptr,
                   nullptr);
  EXPECT_TRUE(s.threw_grenade);
}

TEST(ExecuteMove, DeadPlayersDoNotMove) {
  World w(spatial::make_arena(1024), {});
  Entity& p = w.spawn_player("a");
  p.health = 0;
  const Vec3 start = p.origin;
  execute_move(w, p, forward_cmd(0.0f), {}, nullptr, nullptr);
  EXPECT_EQ(p.origin, start);
}

TEST(Snapshot, ContainsSelfStateAndNearbyEntities) {
  World w(spatial::make_arena(1024), {});
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  b.origin = a.origin + Vec3{100, 0, 0};
  w.relink(b);
  a.health = 64;
  a.frags = 3;
  net::Snapshot snap;
  const auto stats = sweep(w, a, 10, 5, 999, snap);
  EXPECT_EQ(snap.health, 64);
  EXPECT_EQ(snap.frags, 3);
  EXPECT_EQ(snap.server_frame, 10u);
  EXPECT_EQ(snap.client_time_echo_ns, 999);
  bool saw_b = false;
  for (const auto& e : snap.entities) saw_b |= e.id == b.id;
  EXPECT_TRUE(saw_b);
  EXPECT_GT(stats.interest_checks, 0);
  EXPECT_GT(stats.visible_entities, 0);
}

TEST(Snapshot, FarEntitiesAreCulled) {
  const auto map = spatial::make_large_deathmatch(7);
  World w(map, {});
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  b.origin = Vec3{-a.origin.x, -a.origin.y, a.origin.z};  // opposite corner
  w.relink(b);
  net::Snapshot snap;
  sweep(w, a, 1, 0, 0, snap);
  for (const auto& e : snap.entities) EXPECT_NE(e.id, b.id);
}

TEST(Snapshot, WallsBlockPlayerVisibilityWithoutPvs) {
  // A map without PVS data falls back to line-of-sight traces.
  auto map = spatial::make_large_deathmatch(7);
  map.pvs = spatial::PvsData{};  // strip the PVS: force the LOS path
  World w(map, {});
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  a.origin = map.waypoints[0].pos;
  w.relink(a);
  // Put b within interest range of a but in the neighbouring room.
  b.origin = map.waypoints[1].pos;
  w.relink(b);
  const float d = dist(a.origin, b.origin);
  if (d < kInterestRange && d > kAlwaysAudibleRange) {
    net::Snapshot snap;
    const auto stats = sweep(w, a, 1, 0, 0, snap);
    const auto tr =
        w.collision().trace_line(eye_pos(a), eye_pos(b));
    bool saw_b = false;
    for (const auto& e : snap.entities) saw_b |= e.id == b.id;
    EXPECT_EQ(saw_b, !tr.hit());
    EXPECT_GT(stats.los_traces, 0);
  }
}

TEST(Snapshot, PvsCullsOccludedClusters) {
  // On a PVS map, players in mutually invisible clusters are culled with
  // no ray tracing at all.
  spatial::MapGenParams params;
  params.rooms_x = 8;
  params.rooms_y = 1;
  params.room_size = 280;
  params.door_width = 56;
  params.seed = 5;
  const auto map = spatial::generate_map(params, "corridor");
  ASSERT_FALSE(map.pvs.empty());
  World w(map, {});
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  // Park them in clusters 0 and 2 (two rooms apart, within range).
  a.origin = map.pvs.clusters[0].center();
  a.origin.z = 24.0f;
  w.relink(a);
  b.origin = map.pvs.clusters[2].center();
  b.origin.z = 24.0f;
  w.relink(b);
  ASSERT_EQ(a.cluster, 0);
  ASSERT_EQ(b.cluster, 2);
  const float d = dist(a.origin, b.origin);
  if (d < kInterestRange && !map.pvs.can_see(0, 2)) {
    net::Snapshot snap;
    const auto stats = sweep(w, a, 1, 0, 0, snap);
    bool saw_b = false;
    for (const auto& e : snap.entities) saw_b |= e.id == b.id;
    EXPECT_FALSE(saw_b);
    EXPECT_EQ(stats.los_traces, 0);  // PVS path does not trace
  }
  // Same cluster is always potentially visible.
  EXPECT_TRUE(map.pvs.can_see(0, 0));
}

TEST(Snapshot, EventsAreBroadcast) {
  World w(spatial::make_arena(1024), {});
  Entity& a = w.spawn_player("a");
  const net::EventRecords events({make_event(EventKind::kFrag, 1, 2, {}),
                                  make_event(EventKind::kPickup, 3, 4, {})});
  w.refresh_view();
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sweep_snapshot(w, a, 1, 0, 0, events.count, snap, rows);
  net::ByteWriter wire;
  write_full_snapshot(snap, w.view(), rows, events.span(), wire);
  net::ByteReader r(wire.data());
  net::ServerMsgType type{};
  net::Snapshot sent;
  ASSERT_TRUE(net::decode_server_type(r, type) && net::decode(r, sent));
  ASSERT_EQ(sent.events.size(), 2u);
  EXPECT_EQ(sent.events[0].kind, static_cast<uint8_t>(EventKind::kFrag));
  EXPECT_EQ(sent.events[1].a, 3u);
}

}  // namespace
}  // namespace qserv::sim
