// View oracle (DESIGN.md §15): the world's entity view is patched
// incrementally from dirty marks, and after every refresh it must equal a
// from-scratch repack byte for byte; likewise the world's projectile and
// item id lists must equal a full entity scan. Covered here at each
// mutation site directly, through live sequential and 2-thread parallel
// games with combat, grenades, item pickups/respawns, teleports, deaths,
// respawns and client churn (simulated, and on real threads), and across
// a checkpoint restore with journal-tail replay.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/sim/combat.hpp"
#include "src/sim/game_rules.hpp"
#include "src/sim/items.hpp"
#include "src/sim/move.hpp"
#include "src/sim/world.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv {
namespace {

// The world's projectile and item id lists equal a full entity scan.
bool id_lists_match_scan(const sim::World& world) {
  std::vector<uint32_t> projectiles, items;
  world.for_each_entity([&](const sim::Entity& e) {
    if (e.type == sim::EntityType::kProjectile) projectiles.push_back(e.id);
    if (e.type == sim::EntityType::kItem) items.push_back(e.id);
  });
  return projectiles == world.projectile_ids() && items == world.item_ids();
}

::testing::AssertionResult refreshed_view_matches_repack(sim::World& world) {
  if (!id_lists_match_scan(world))
    return ::testing::AssertionFailure()
           << "projectile/item id lists differ from an entity scan";
  world.refresh_view();
  sim::FrameView fresh;
  fresh.rebuild(world);
  if (sim::views_identical(world.view(), fresh))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "incremental view (" << world.view().size()
         << " rows) differs from a repack (" << fresh.size() << " rows)";
}

class CollectEvents : public sim::EventSink {
 public:
  void emit(const net::GameEvent& e) override { events.push_back(e); }
  std::vector<net::GameEvent> events;
};

// Every mutation site, one at a time, each followed by an oracle check.
TEST(ViewOracle, EveryMutationSitePatchesExactly) {
  const auto map = spatial::make_large_deathmatch(7);
  ASSERT_FALSE(map.items.empty());
  sim::World world(map, sim::World::Config{4, 7});
  CollectEvents sink;
  EXPECT_TRUE(refreshed_view_matches_repack(world));  // initial repack

  sim::Entity& a = world.spawn_player("a");
  sim::Entity& b = world.spawn_player("b");
  EXPECT_TRUE(refreshed_view_matches_repack(world));  // spawns insert rows

  // Move with yaw change (execute_move's final relink marks it).
  net::MoveCmd cmd;
  cmd.yaw_deg = 90.0f;
  cmd.forward = sim::kMaxPlayerSpeed;
  sim::execute_move(world, a, cmd, {}, nullptr, &sink);
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // Teleport: a move starting on a teleporter pad lands on its
  // destination.
  ASSERT_FALSE(map.teleporters.empty());
  a.origin = map.teleporters[0].origin;
  world.relink(a);
  world.refresh_view();
  const sim::MoveStats ms =
      sim::execute_move(world, a, net::MoveCmd{}, {}, nullptr, &sink);
  EXPECT_TRUE(ms.teleported);
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // Damage, then a lethal hit: death respawns the victim elsewhere.
  sim::apply_damage(world, b, a.id, 10, nullptr, &sink);
  EXPECT_TRUE(refreshed_view_matches_repack(world));
  b.armor = 0;
  EXPECT_TRUE(sim::apply_damage(world, b, a.id, 1000, nullptr, &sink));
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // Item pickup flips availability; the world phase respawns it.
  sim::Entity* item = nullptr;
  world.for_each_entity([&](sim::Entity& e) {
    if (item == nullptr && e.type == sim::EntityType::kItem &&
        e.item == spatial::ItemType::kAmmo)
      item = &e;
  });
  ASSERT_NE(item, nullptr);
  ASSERT_TRUE(sim::try_pickup(world, a, *item, vt::TimePoint{}, &sink));
  EXPECT_TRUE(refreshed_view_matches_repack(world));
  world.world_phase(item->respawn_at, vt::millis(30), sink);
  EXPECT_TRUE(item->available);
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // Projectiles: materialized, stepped, exploded (spawn, relink, remove).
  sim::World::ProjectileSpec spec;
  spec.owner = a.id;
  spec.origin = a.origin + Vec3{0, 0, 30};
  spec.dir = Vec3{1, 0, 0};
  spec.expire_at = vt::TimePoint{} + vt::millis(300);
  world.queue_projectile(spec);
  vt::TimePoint t{};
  bool saw_projectile = false;
  for (int step = 0; step < 20; ++step) {
    world.world_phase(t, vt::millis(30), sink);
    t = t + vt::millis(30);
    world.for_each_entity([&](const sim::Entity& e) {
      saw_projectile |= e.type == sim::EntityType::kProjectile;
    });
    EXPECT_TRUE(refreshed_view_matches_repack(world)) << "step " << step;
  }
  EXPECT_TRUE(saw_projectile);

  // Removal erases the row; the freed id is reused by the next spawn.
  const uint32_t gone = b.id;
  world.remove_entity(gone);
  EXPECT_TRUE(refreshed_view_matches_repack(world));
  EXPECT_EQ(world.spawn_player("c").id, gone);
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // Several mutations between two refreshes, including spawn+remove of
  // the same id.
  sim::Entity& d = world.spawn_player("d");
  world.remove_entity(d.id);
  a.origin += Vec3{8, 0, 0};
  world.relink(a);
  world.spawn_entity(sim::EntityType::kItem).available = true;
  EXPECT_TRUE(refreshed_view_matches_repack(world));

  // A restore replaces the world wholesale: rows of entities the
  // checkpoint does not hold must go too.
  std::vector<sim::Entity> kept;
  world.for_each_entity([&](const sim::Entity& e) {
    if (!e.is_player()) kept.push_back(e);
  });
  world.begin_restore();
  for (const sim::Entity& e : kept) world.restore_entity(e);
  EXPECT_TRUE(refreshed_view_matches_repack(world));
}

// Observes a live game from the master window: refreshes the view (the
// same incremental patch the reply flip runs, here covering the
// master-window mutations) and compares it with a repack. A mark missed
// anywhere in the frame leaves a stale row that no later refresh fixes,
// so the comparison catches it. Also tallies what the game exercised.
class ViewOracleHook final : public core::FrameHook {
 public:
  ViewOracleHook(sim::World& world, const spatial::GameMap& map)
      : world_(world), map_(map) {}

  void on_frame_end(vt::TimePoint, int, core::ThreadStats&) override {
    world_.refresh_view();
    fresh_.rebuild(world_);
    ++frames;
    if (!sim::views_identical(world_.view(), fresh_)) ++mismatches;
    if (!id_lists_match_scan(world_)) ++id_list_mismatches;
    tally(world_.view());
  }

  uint64_t frames = 0, mismatches = 0, id_list_mismatches = 0;
  uint64_t projectile_rows = 0, item_flips = 0, teleports = 0, deaths = 0;
  uint64_t joins = 0, leaves = 0;

 private:
  void tally(const sim::FrameView& v) {
    std::map<uint32_t, size_t> prev_rows;
    for (size_t i = 0; i < prev_.size(); ++i) prev_rows[prev_.ids[i]] = i;
    for (size_t i = 0; i < v.size(); ++i) {
      const auto type = static_cast<sim::EntityType>(v.type[i]);
      if (type == sim::EntityType::kProjectile) ++projectile_rows;
      const auto it = prev_rows.find(v.ids[i]);
      if (it == prev_rows.end()) {
        joins += type == sim::EntityType::kPlayer ? 1 : 0;
        continue;
      }
      const size_t j = it->second;
      prev_rows.erase(it);
      if (type == sim::EntityType::kItem && v.state[i] != prev_.state[j])
        ++item_flips;
      if (type != sim::EntityType::kPlayer) continue;
      const Vec3 at{v.x[i], v.y[i], v.z[i]};
      for (const auto& tp : map_.teleporters) teleports += at == tp.destination;
      const sim::Entity* e = world_.get(v.ids[i]);
      const int d = e->deaths;
      auto& last = last_deaths_[v.ids[i]];
      if (d > last) deaths += static_cast<uint64_t>(d - last);
      last = d;
    }
    for (const auto& [id, row] : prev_rows) {
      if (prev_.type[row] == static_cast<uint8_t>(sim::EntityType::kPlayer)) {
        ++leaves;
        last_deaths_.erase(id);
      }
    }
    prev_ = v;
  }

  sim::World& world_;
  const spatial::GameMap& map_;
  sim::FrameView fresh_, prev_;
  std::map<uint32_t, int> last_deaths_;
};

void run_live_game(int threads) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = threads;
  scfg.delta_snapshots = true;
  scfg.client_timeout = vt::seconds(1);  // reaps churn's crashed clients
  std::unique_ptr<core::Server> server;
  if (threads > 1) {
    server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  } else {
    server = std::make_unique<core::SequentialServer>(p, net, map, scfg);
  }
  ViewOracleHook oracle(server->world(), map);
  server->add_frame_hook(&oracle);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  dcfg.aggression = 1.0f;
  dcfg.grenade_ratio = 0.5f;
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(2);
  bots::ClientDriver driver(p, net, map, *server, dcfg);
  server->start();
  driver.start();
  p.call_after(vt::seconds(8), [&] {
    server->request_stop();
    driver.request_stop();
  });
  p.run();

  EXPECT_GT(oracle.frames, 500u);
  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_EQ(oracle.id_list_mismatches, 0u);
  // The game exercised every kind of view mutation.
  EXPECT_GT(oracle.projectile_rows, 0u);
  EXPECT_GT(oracle.item_flips, 0u);
  EXPECT_GT(oracle.teleports, 0u);
  EXPECT_GT(oracle.deaths, 0u);
  EXPECT_GT(oracle.joins, 24u);  // rejoins after churn
  EXPECT_GT(oracle.leaves, 0u);
}

TEST(ViewOracleE2E, SequentialGameMatchesRepackEveryFrame) {
  run_live_game(1);
}

TEST(ViewOracleE2E, ParallelGameMatchesRepackEveryFrame) {
  run_live_game(2);
}

// The same check with request processing on real OS threads, where the
// dirty marks of concurrent moves actually race (the TSan CI job runs
// this).
TEST(ViewOracleE2E, RealThreadsParallelGameMatchesRepack) {
  vt::RealPlatform platform;
  net::VirtualNetwork net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.lock_policy = core::LockPolicy::kOptimized;
  core::ParallelServer server(platform, net, map, scfg);
  ViewOracleHook oracle(server.world(), map);
  server.add_frame_hook(&oracle);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 16;
  dcfg.frame_interval = vt::millis(10);
  dcfg.aggression = 1.0f;
  dcfg.grenade_ratio = 0.5f;
  bots::ClientDriver driver(platform, net, map, server, dcfg);
  server.start();
  driver.start();
  platform.call_after(vt::millis(1500), [&] {
    server.request_stop();
    driver.request_stop();
  });
  platform.join_all();
  EXPECT_GT(oracle.frames, 20u);
  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_EQ(oracle.id_list_mismatches, 0u);
}

// A checkpoint restore with journal-tail replay leaves a view equal to a
// repack, and incremental refreshes stay exact as play resumes.
TEST(ViewOracleE2E, RestoreWithTailReplayThenPlay) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 64;
  std::vector<uint8_t> image, journal;
  {
    auto server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
    bots::ClientDriver::Config dcfg;
    dcfg.players = 12;
    bots::ClientDriver driver(p, net, map, *server, dcfg);
    server->start();
    driver.start();
    p.call_after(vt::seconds(4), [&] {
      server->request_stop();
      driver.request_stop();
    });
    p.run();
    ASSERT_TRUE(server->checkpoints()->has());
    image = server->checkpoints()->latest();
    journal = server->recorder()->encode();
  }

  auto restored = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  // Settle the fresh world's view first, so the restore itself must
  // mark every row dirty.
  restored->world().refresh_view();
  core::Server::RestoreStats stats{};
  ASSERT_EQ(restored->restore_from(image, journal, &stats),
            recovery::LoadError::kNone);
  EXPECT_GT(stats.tail_frames, 0u);
  EXPECT_TRUE(refreshed_view_matches_repack(restored->world()));

  ViewOracleHook oracle(restored->world(), map);
  restored->add_frame_hook(&oracle);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  dcfg.first_local_port = 41000;
  dcfg.name_prefix = "late-";
  bots::ClientDriver driver(p, net, map, *restored, dcfg);
  restored->start();
  driver.start();
  p.call_after(vt::seconds(3), [&] {
    restored->request_stop();
    driver.request_stop();
  });
  p.run();
  EXPECT_GT(oracle.frames, 100u);
  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_EQ(oracle.id_list_mismatches, 0u);
}

}  // namespace
}  // namespace qserv
