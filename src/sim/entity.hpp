// Game entities, Quake-edict style: one struct for all entity kinds with
// type-specific fields. Entities are identified by dense ids assigned by
// the World; the id namespace is shared with the wire protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/spatial/map.hpp"
#include "src/util/aabb.hpp"
#include "src/util/vec.hpp"
#include "src/vthread/time.hpp"

namespace qserv::sim {

enum class EntityType : uint8_t {
  kNone = 0,
  kPlayer = 1,
  kItem = 2,
  kProjectile = 3,
  kTeleporter = 4,
};

enum class Weapon : uint8_t { kBlaster = 0, kRailgun = 1 };

// Player movement constants (Quake values).
inline constexpr Vec3 kPlayerMins{-16.0f, -16.0f, -24.0f};
inline constexpr Vec3 kPlayerMaxs{16.0f, 16.0f, 32.0f};
inline constexpr float kMaxPlayerSpeed = 320.0f;   // units/s
inline constexpr float kPlayerAccel = 10.0f;       // 1/s toward wish velocity
inline constexpr float kGroundFriction = 6.0f;     // 1/s
inline constexpr float kGravity = 800.0f;          // units/s^2
inline constexpr float kJumpVelocity = 270.0f;

// Combat constants.
inline constexpr int kSpawnHealth = 100;
inline constexpr int kMegaHealthAmount = 100;
inline constexpr int kHealthAmount = 25;
inline constexpr int kArmorAmount = 50;
inline constexpr int kMaxHealth = 200;
inline constexpr int kMaxArmor = 100;
inline constexpr int kBlasterDamage = 15;
inline constexpr int kRailgunDamage = 30;
inline constexpr int kGrenadeDamage = 40;
inline constexpr float kHitscanRange = 2000.0f;
inline constexpr float kGrenadeSpeed = 600.0f;
inline constexpr vt::Duration kGrenadeLifetime = vt::millis(1500);
// How far a grenade is simulated during request processing before being
// handed to the world-physics phase ("type 1" objects in §4.3 — their
// expanded lock region must cover this distance).
inline constexpr float kGrenadeRequestRange = 256.0f;
inline constexpr vt::Duration kItemRespawn = vt::seconds(20);
// Quake-like fire rate: long-range interactions are frequent, which is
// what drives the paper's region-lock contention ("the observed level of
// interaction among players is very high").
inline constexpr vt::Duration kAttackCooldown = vt::millis(100);
inline constexpr int kStartGrenades = 5;
inline constexpr int kAmmoGrenades = 10;

struct Entity {
  uint32_t id = 0;
  EntityType type = EntityType::kNone;
  bool active = false;

  Vec3 origin;
  Vec3 velocity;
  float yaw_deg = 0.0f;
  Vec3 mins;  // local bounds
  Vec3 maxs;
  bool solid = false;     // blocks player motion
  bool on_ground = false;

  int areanode = -1;  // tree node this entity is linked to (-1 = unlinked)
  int cluster = -1;   // PVS cluster at the current origin (-1 = none)

  // --- player fields ---
  std::string name;
  int health = 0;
  int armor = 0;
  int frags = 0;
  int grenades = 0;
  Weapon weapon = Weapon::kBlaster;
  vt::TimePoint next_attack{};
  uint32_t deaths = 0;

  // --- item fields ---
  spatial::ItemType item = spatial::ItemType::kHealth;
  bool available = true;          // picked-up items respawn later
  vt::TimePoint respawn_at{};

  // --- projectile fields ---
  uint32_t owner = 0;
  Vec3 dir;
  vt::TimePoint expire_at{};

  // --- teleporter fields ---
  Vec3 teleport_dest;

  Aabb bounds() const { return Aabb::at(origin, mins, maxs); }
  bool is_player() const { return type == EntityType::kPlayer; }
  bool alive() const;
};

// World::gather tests the bounds of every entity on the areanode lists it
// scans, and a parent node's list holds entities outside the caller's
// locked region, which their own thread may be moving at that moment.
// Those reads, and the origin writes of request processing, go through
// relaxed atomics per component: the values are the ones plain accesses
// would give, without the data race.
inline Vec3 load_origin(const Entity& e) {
  auto& o = const_cast<Vec3&>(e.origin);
  return {std::atomic_ref<float>(o.x).load(std::memory_order_relaxed),
          std::atomic_ref<float>(o.y).load(std::memory_order_relaxed),
          std::atomic_ref<float>(o.z).load(std::memory_order_relaxed)};
}
// Lock planning reads the mover's bounds before it holds any region lock,
// while another worker's combat may respawn the mover (store_origin).
inline Aabb load_bounds(const Entity& e) {
  return Aabb::at(load_origin(e), e.mins, e.maxs);
}
inline void store_origin(Entity& e, const Vec3& v) {
  std::atomic_ref<float>(e.origin.x).store(v.x, std::memory_order_relaxed);
  std::atomic_ref<float>(e.origin.y).store(v.y, std::memory_order_relaxed);
  std::atomic_ref<float>(e.origin.z).store(v.z, std::memory_order_relaxed);
}

// A move's region is planned before its locks are held; if another
// worker's hitscan kills and respawns the mover meanwhile, the move runs
// while that worker (or the next attacker at the spawn point) writes the
// mover's health. Request-processing reads and writes of health go
// through relaxed atomics, like the origin's.
inline int load_health(const Entity& e) {
  return std::atomic_ref<int>(const_cast<int&>(e.health))
      .load(std::memory_order_relaxed);
}
inline void store_health(Entity& e, int v) {
  std::atomic_ref<int>(e.health).store(v, std::memory_order_relaxed);
}
inline bool Entity::alive() const {
  return is_player() && load_health(*this) > 0;
}

// Game event kinds carried in the global state buffer / snapshots.
enum class EventKind : uint8_t {
  kFrag = 1,       // a = attacker id, b = victim id
  kPickup = 2,     // a = player id, b = item entity id
  kTeleport = 3,   // a = player id
  kExplosion = 4,  // a = projectile owner id
  kSpawn = 5,      // a = player id
};

}  // namespace qserv::sim
