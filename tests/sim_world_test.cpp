#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/sim/combat.hpp"
#include "src/sim/game_rules.hpp"
#include "src/sim/items.hpp"
#include "src/sim/world.hpp"
#include "src/spatial/map_gen.hpp"

namespace qserv::sim {
namespace {

class CollectEvents : public EventSink {
 public:
  void emit(const net::GameEvent& e) override { events.push_back(e); }
  int count(EventKind k) const {
    int n = 0;
    for (const auto& e : events)
      if (e.kind == static_cast<uint8_t>(k)) ++n;
    return n;
  }
  std::vector<net::GameEvent> events;
};

World make_world(uint64_t seed = 1) {
  return World(spatial::make_arena(1024, 3), World::Config{4, seed});
}

TEST(World, MapEntitiesAreMaterialized) {
  const auto map = spatial::make_large_deathmatch(7);
  World w(map, {});
  size_t items = 0, teles = 0;
  w.for_each_entity([&](const Entity& e) {
    items += e.type == EntityType::kItem ? 1 : 0;
    teles += e.type == EntityType::kTeleporter ? 1 : 0;
  });
  EXPECT_EQ(items, map.items.size());
  EXPECT_EQ(teles, map.teleporters.size());
  EXPECT_EQ(w.active_entities(), items + teles);
  // Everything is linked into the areanode tree.
  EXPECT_EQ(w.tree().total_linked(), w.active_entities());
}

TEST(World, SpawnRemoveRecyclesIds) {
  World w = make_world();
  Entity& a = w.spawn_entity(EntityType::kProjectile);
  const uint32_t id = a.id;
  const size_t before = w.active_entities();
  w.remove_entity(id);
  EXPECT_EQ(w.get(id), nullptr);
  EXPECT_EQ(w.active_entities(), before - 1);
  Entity& b = w.spawn_entity(EntityType::kProjectile);
  EXPECT_EQ(b.id, id);  // slot reused
}

TEST(World, SpawnPlayerIsLinkedAliveAndInsideWorld) {
  World w = make_world();
  Entity& p = w.spawn_player("alice");
  EXPECT_TRUE(p.alive());
  EXPECT_EQ(p.health, kSpawnHealth);
  EXPECT_GE(p.areanode, 0);
  EXPECT_TRUE(w.map().bounds.contains(p.origin));
  EXPECT_FALSE(w.collision().box_solid(p.origin, p.mins, p.maxs));
}

TEST(World, GatherFindsEntitiesByRegion) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  std::vector<uint32_t> out;
  w.gather(p.bounds().expanded(10.0f), out);
  EXPECT_NE(std::find(out.begin(), out.end(), p.id), out.end());
  out.clear();
  // A box far away from the player must not contain it.
  const Vec3 far = p.origin + Vec3{400, 400, 0};
  w.gather({far, far}, out);
  EXPECT_EQ(std::find(out.begin(), out.end(), p.id), out.end());
}

TEST(World, RelinkTracksMovement) {
  const auto map = spatial::make_large_deathmatch(7);
  World w(map, {});
  Entity& p = w.spawn_player("a");
  // Move the player to the opposite corner of the world and relink.
  const int before = p.areanode;
  p.origin = Vec3{-p.origin.x, -p.origin.y, p.origin.z};
  w.relink(p);
  std::vector<uint32_t> out;
  w.gather(p.bounds(), out);
  EXPECT_NE(std::find(out.begin(), out.end(), p.id), out.end());
  EXPECT_EQ(w.tree().total_linked(), w.active_entities());
  (void)before;
}

// Invariant: every active entity is linked to exactly the node
// link_node_for() prescribes for its bounds.
TEST(World, LinkageInvariantHoldsAfterChurn) {
  World w = make_world(5);
  std::vector<uint32_t> players;
  for (int i = 0; i < 20; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    players.push_back(w.spawn_player(name).id);
  }
  Rng rng(9);
  for (int step = 0; step < 500; ++step) {
    Entity* p = w.get(players[rng.below(players.size())]);
    ASSERT_NE(p, nullptr);
    p->origin = rng.point_in(w.map().bounds.mins + Vec3{40, 40, 24},
                             w.map().bounds.maxs - Vec3{40, 40, 100});
    w.relink(*p);
  }
  w.for_each_entity([&](const Entity& e) {
    EXPECT_EQ(e.areanode, w.tree().link_node_for(e.bounds()));
  });
  EXPECT_EQ(w.tree().total_linked(), w.active_entities());
}

TEST(GameRules, ArmorAbsorbsTwoThirds) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  p.armor = 100;
  CollectEvents ev;
  apply_damage(w, p, 0, 30, nullptr, &ev);
  EXPECT_EQ(p.health, kSpawnHealth - 10);
  EXPECT_EQ(p.armor, 80);
}

TEST(GameRules, DamageWithoutArmorIsFull) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  CollectEvents ev;
  apply_damage(w, p, 0, 30, nullptr, &ev);
  EXPECT_EQ(p.health, kSpawnHealth - 30);
}

TEST(GameRules, KillScoresFragAndRespawns) {
  World w = make_world();
  Entity& victim = w.spawn_player("v");
  Entity& attacker = w.spawn_player("a");
  CollectEvents ev;
  victim.health = 10;
  EXPECT_TRUE(apply_damage(w, victim, attacker.id, 50, nullptr, &ev));
  EXPECT_EQ(attacker.frags, 1);
  EXPECT_EQ(victim.deaths, 1u);
  EXPECT_EQ(victim.health, kSpawnHealth);  // respawned
  EXPECT_EQ(ev.count(EventKind::kFrag), 1);
  EXPECT_EQ(ev.count(EventKind::kSpawn), 1);
}

TEST(GameRules, SelfKillCostsAFrag) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  CollectEvents ev;
  p.health = 5;
  apply_damage(w, p, p.id, 50, nullptr, &ev);
  EXPECT_EQ(p.frags, -1);
}

TEST(GameRules, ScoreboardSortsByFrags) {
  World w = make_world();
  Entity& a = w.spawn_player("a");
  Entity& b = w.spawn_player("b");
  Entity& c = w.spawn_player("c");
  a.frags = 1;
  b.frags = 5;
  c.frags = 3;
  const auto board = scoreboard(w);
  ASSERT_EQ(board.size(), 3u);
  EXPECT_EQ(board[0].name, "b");
  EXPECT_EQ(board[1].name, "c");
  EXPECT_EQ(board[2].name, "a");
}

TEST(Items, PickupAppliesEffectAndSchedulesRespawn) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  p.health = 50;
  Entity& item = w.spawn_entity(EntityType::kItem);
  item.item = spatial::ItemType::kHealth;
  CollectEvents ev;
  const vt::TimePoint now{1000};
  EXPECT_TRUE(try_pickup(w, p, item, now, &ev));
  EXPECT_EQ(p.health, 75);
  EXPECT_FALSE(item.available);
  EXPECT_EQ(item.respawn_at.ns, (now + kItemRespawn).ns);
  EXPECT_EQ(ev.count(EventKind::kPickup), 1);
  // Unavailable items cannot be picked up again.
  EXPECT_FALSE(try_pickup(w, p, item, now, &ev));
}

TEST(Items, UselessPickupIsSkipped) {
  World w = make_world();
  Entity& p = w.spawn_player("a");  // full health
  Entity& item = w.spawn_entity(EntityType::kItem);
  item.item = spatial::ItemType::kHealth;
  CollectEvents ev;
  EXPECT_FALSE(try_pickup(w, p, item, {}, &ev));
  EXPECT_TRUE(item.available);
}

TEST(Items, WeaponAndAmmoPickups) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  Entity& weapon = w.spawn_entity(EntityType::kItem);
  weapon.item = spatial::ItemType::kWeapon;
  Entity& ammo = w.spawn_entity(EntityType::kItem);
  ammo.item = spatial::ItemType::kAmmo;
  EXPECT_TRUE(try_pickup(w, p, weapon, {}, nullptr));
  EXPECT_EQ(p.weapon, Weapon::kRailgun);
  EXPECT_FALSE(try_pickup(w, p, weapon, {}, nullptr));  // already have it
  EXPECT_TRUE(try_pickup(w, p, ammo, {}, nullptr));
  EXPECT_EQ(p.grenades, kStartGrenades + kAmmoGrenades);
}

TEST(Combat, HitscanHitsFacingTarget) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  Entity& target = w.spawn_player("t");
  // Line the target up 200 units east of the shooter.
  target.origin = shooter.origin + Vec3{200, 0, 0};
  w.relink(target);
  shooter.yaw_deg = 0.0f;  // facing +x
  CollectEvents ev;
  const auto r = fire_hitscan(w, shooter, 0.0f, {}, nullptr, &ev);
  EXPECT_TRUE(r.fired);
  EXPECT_TRUE(r.hit_player);
  EXPECT_EQ(r.victim, target.id);
  EXPECT_EQ(target.health, kSpawnHealth - kBlasterDamage);
}

TEST(Combat, HitscanMissesWhenFacingAway) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  Entity& target = w.spawn_player("t");
  target.origin = shooter.origin + Vec3{200, 0, 0};
  w.relink(target);
  shooter.yaw_deg = 180.0f;  // facing -x
  const auto r = fire_hitscan(w, shooter, 0.0f, {}, nullptr, nullptr);
  EXPECT_TRUE(r.fired);
  EXPECT_FALSE(r.hit_player);
  EXPECT_EQ(target.health, kSpawnHealth);
}

TEST(Combat, HitscanHitsNearestOfTwoTargets) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  Entity& near = w.spawn_player("near");
  Entity& far = w.spawn_player("far");
  near.origin = shooter.origin + Vec3{150, 0, 0};
  far.origin = shooter.origin + Vec3{300, 0, 0};
  w.relink(near);
  w.relink(far);
  shooter.yaw_deg = 0.0f;
  const auto r = fire_hitscan(w, shooter, 0.0f, {}, nullptr, nullptr);
  EXPECT_EQ(r.victim, near.id);
  EXPECT_EQ(far.health, kSpawnHealth);
}

TEST(Combat, CooldownPreventsRapidFire) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  EXPECT_TRUE(fire_hitscan(w, shooter, 0, {}, nullptr, nullptr).fired);
  EXPECT_FALSE(fire_hitscan(w, shooter, 0, {}, nullptr, nullptr).fired);
  const vt::TimePoint later = vt::TimePoint{} + kAttackCooldown;
  EXPECT_TRUE(fire_hitscan(w, shooter, 0, later, nullptr, nullptr).fired);
}

TEST(Combat, RailgunDoesMoreDamage) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  Entity& target = w.spawn_player("t");
  target.origin = shooter.origin + Vec3{200, 0, 0};
  w.relink(target);
  shooter.yaw_deg = 0.0f;
  shooter.weapon = Weapon::kRailgun;
  fire_hitscan(w, shooter, 0.0f, {}, nullptr, nullptr);
  EXPECT_EQ(target.health, kSpawnHealth - kRailgunDamage);
}

TEST(Combat, GrenadeConsumesAmmoAndQueuesProjectile) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  shooter.yaw_deg = 0.0f;
  // Fire into open space: the grenade should outlive the request-time
  // segment and be queued for the world phase.
  const auto r = throw_grenade(w, shooter, -10.0f, {}, nullptr, nullptr);
  EXPECT_TRUE(r.fired);
  EXPECT_EQ(shooter.grenades, kStartGrenades - 1);
  EXPECT_EQ(w.pending_projectiles(), 1u);
}

TEST(Combat, GrenadeOutOfAmmoDoesNotFire) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  shooter.grenades = 0;
  EXPECT_FALSE(throw_grenade(w, shooter, 0, {}, nullptr, nullptr).fired);
}

TEST(Combat, ExplosionDamagesByDistance) {
  World w = make_world();
  Entity& close = w.spawn_player("close");
  Entity& distant = w.spawn_player("far");
  const Vec3 at = close.origin + Vec3{10, 0, 0};
  distant.origin = close.origin + Vec3{90, 0, 0};
  w.relink(distant);
  CollectEvents ev;
  explode_at(w, 0, at, nullptr, &ev);
  EXPECT_LT(close.health, kSpawnHealth);
  EXPECT_LT(distant.health, kSpawnHealth);
  EXPECT_LT(kSpawnHealth - close.health + 0, 2 * (kSpawnHealth - distant.health) + 40);
  EXPECT_GT(kSpawnHealth - close.health, kSpawnHealth - distant.health);
  EXPECT_EQ(ev.count(EventKind::kExplosion), 1);
}

TEST(Combat, ExplosionOutOfRadiusIsHarmless) {
  World w = make_world();
  Entity& p = w.spawn_player("p");
  explode_at(w, 0, p.origin + Vec3{200, 0, 0}, nullptr, nullptr);
  EXPECT_EQ(p.health, kSpawnHealth);
}

TEST(WorldPhase, MaterializesAndFliesProjectiles) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  w.queue_projectile({shooter.id, shooter.origin + Vec3{0, 0, 10},
                      Vec3{1, 0, 0}, vt::TimePoint{} + vt::seconds(10)});
  CollectEvents ev;
  w.world_phase(vt::TimePoint{} + vt::millis(30), vt::millis(30), ev);
  EXPECT_EQ(w.pending_projectiles(), 0u);
  uint32_t proj_id = 0;
  w.for_each_entity([&](const Entity& e) {
    if (e.type == EntityType::kProjectile) proj_id = e.id;
  });
  ASSERT_NE(proj_id, 0u);
  const Vec3 first_pos = w.get(proj_id)->origin;
  w.world_phase(vt::TimePoint{} + vt::millis(60), vt::millis(30), ev);
  const Entity* proj = w.get(proj_id);
  if (proj != nullptr) {
    EXPECT_GT(proj->origin.x, first_pos.x);
  }
}

TEST(WorldPhase, ProjectileExplodesOnExpiry) {
  World w = make_world();
  Entity& shooter = w.spawn_player("s");
  w.queue_projectile({shooter.id, shooter.origin + Vec3{0, 0, 10},
                      Vec3{1, 0, 0}, vt::TimePoint{} + vt::millis(50)});
  CollectEvents ev;
  w.world_phase(vt::TimePoint{} + vt::millis(30), vt::millis(30), ev);
  // Expiry passed: next phase detonates it.
  w.world_phase(vt::TimePoint{} + vt::millis(60), vt::millis(30), ev);
  EXPECT_EQ(ev.count(EventKind::kExplosion), 1);
  size_t projectiles = 0;
  w.for_each_entity([&](const Entity& e) {
    projectiles += e.type == EntityType::kProjectile ? 1 : 0;
  });
  EXPECT_EQ(projectiles, 0u);
}

TEST(WorldPhase, ItemsRespawnAfterDelay) {
  World w = make_world();
  Entity& p = w.spawn_player("a");
  p.health = 10;
  Entity* item = nullptr;
  w.for_each_entity([&](Entity& e) {
    if (item == nullptr && e.type == EntityType::kItem &&
        e.item == spatial::ItemType::kHealth)
      item = &e;
  });
  ASSERT_NE(item, nullptr);
  CollectEvents ev;
  ASSERT_TRUE(try_pickup(w, p, *item, vt::TimePoint{}, &ev));
  w.world_phase(vt::TimePoint{} + vt::seconds(1), vt::seconds(1), ev);
  EXPECT_FALSE(item->available);
  w.world_phase(vt::TimePoint{} + kItemRespawn + vt::seconds(1), vt::seconds(1), ev);
  EXPECT_TRUE(item->available);
}

}  // namespace
}  // namespace qserv::sim
