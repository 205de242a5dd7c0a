// Long-range interactions (§4.3 of the paper):
//
//  * fire_hitscan — "type 2" objects: the interaction is fully simulated
//    during request processing. Under optimized locking the server locks
//    the *directional* bounding box from the shooter to the world edge.
//  * throw_grenade — "type 1" objects: simulated for the first
//    kGrenadeRequestRange during request processing, then handed to the
//    world-physics phase. Under optimized locking the server locks an
//    *expanded* bounding box covering that range.
//
// Callers must hold the region locks mandated by the active locking
// policy before invoking these.
#pragma once

#include "src/sim/scratch.hpp"
#include "src/sim/world.hpp"

namespace qserv::sim {

struct AttackResult {
  bool fired = false;          // false if on cooldown / out of ammo
  bool hit_player = false;
  uint32_t victim = 0;
  int brushes_tested = 0;
  int entities_scanned = 0;
};

// Instant-hit shot along the shooter's view direction with the equipped
// weapon (blaster or railgun). `scratch`, when given, provides the reusable
// ray-gather buffer.
AttackResult fire_hitscan(World& world, Entity& shooter, float pitch_deg,
                          vt::TimePoint now, NodeListLocks* locks,
                          EventSink* events, MoveScratch* scratch = nullptr);

// Grenade toss along the view direction. Consumes one grenade. `order`
// tags the queued projectile with the throwing move's serialization index.
AttackResult throw_grenade(World& world, Entity& shooter, float pitch_deg,
                           vt::TimePoint now, NodeListLocks* locks,
                           EventSink* events, uint64_t order = 0,
                           MoveScratch* scratch = nullptr);

// Radius damage at `pos` attributed to `owner`; used by grenades both at
// request time (early detonation) and in the world phase. `scratch`, if
// given, holds the radius gather instead of a local vector.
void explode_at(World& world, uint32_t owner, const Vec3& pos,
                NodeListLocks* locks, EventSink* events,
                std::vector<uint32_t>* scratch = nullptr);

// The view direction of a player (unit vector).
Vec3 aim_dir(const Entity& player, float pitch_deg);

// Eye position a player shoots from.
Vec3 eye_pos(const Entity& player);

}  // namespace qserv::sim
