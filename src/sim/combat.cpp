#include "src/sim/combat.hpp"

#include <algorithm>

#include "src/sim/game_rules.hpp"
#include "src/util/check.hpp"

namespace qserv::sim {

Vec3 aim_dir(const Entity& player, float pitch_deg) {
  return ViewAngles{player.yaw_deg, pitch_deg}.forward();
}

Vec3 eye_pos(const Entity& player) {
  return player.origin + Vec3{0, 0, 22};
}

void explode_at(World& world, uint32_t owner, const Vec3& pos,
                NodeListLocks* locks, EventSink* events,
                std::vector<uint32_t>* scratch) {
  constexpr float kRadius = 100.0f;
  std::vector<uint32_t> local_nearby;
  std::vector<uint32_t>& nearby = scratch != nullptr ? *scratch : local_nearby;
  nearby.clear();
  world.gather(Aabb{pos, pos}.expanded(kRadius), nearby, locks);
  for (const uint32_t id : nearby) {
    Entity* v = world.get(id);
    if (v == nullptr || !v->is_player() || v->health <= 0) continue;
    const float d = dist(v->origin, pos);
    if (d > kRadius) continue;
    const int dmg = static_cast<int>(
        static_cast<float>(kGrenadeDamage) * (1.0f - 0.5f * d / kRadius));
    apply_damage(world, *v, owner, dmg, locks, events);
  }
  if (events != nullptr)
    events->emit(make_event(EventKind::kExplosion, owner, 0, pos));
}

namespace {

// Nearest player (other than the shooter) hit by the ray, within
// `max_fraction` of it. Returns nullptr on a miss.
Entity* nearest_player_on_ray(World& world, const Entity& shooter,
                              const Vec3& start, const Vec3& delta,
                              float max_fraction, NodeListLocks* locks,
                              AttackResult& res, MoveScratch* scratch) {
  // The ray's axis-aligned bounds, padded by the player box extents so
  // boxes merely clipped by the ray are gathered too.
  const Aabb ray_bounds =
      Aabb{start, start}.swept(delta * max_fraction).expanded(20.0f);
  std::vector<uint32_t> local_candidates;
  std::vector<uint32_t>& candidates =
      scratch != nullptr ? scratch->candidates : local_candidates;
  candidates.clear();
  GatherStats gs;
  world.gather(ray_bounds, candidates, locks, &gs);
  res.entities_scanned += gs.entities_scanned;

  Entity* best = nullptr;
  float best_fraction = max_fraction;
  for (const uint32_t id : candidates) {
    Entity* e = world.get(id);
    if (e == nullptr || !e->alive() || e->id == shooter.id) continue;
    const float f = spatial::ray_vs_aabb(start, delta, e->bounds());
    if (f >= 0.0f && f < best_fraction) {
      best_fraction = f;
      best = e;
    }
  }
  return best;
}

}  // namespace

AttackResult fire_hitscan(World& world, Entity& shooter, float pitch_deg,
                          vt::TimePoint now, NodeListLocks* locks,
                          EventSink* events, MoveScratch* scratch) {
  AttackResult res;
  if (now < shooter.next_attack || load_health(shooter) <= 0) return res;
  shooter.next_attack = now + kAttackCooldown;
  res.fired = true;
  world.charge(world.costs().hitscan_exec);

  const Vec3 start = eye_pos(shooter);
  const Vec3 dir = aim_dir(shooter, pitch_deg);
  const Vec3 delta = dir * kHitscanRange;

  // How far the world geometry lets the shot travel.
  const auto tr = world.collision().trace_line(start, start + delta);
  res.brushes_tested += tr.brushes_tested;
  world.charge(world.costs().per_brush_trace * tr.brushes_tested);

  Entity* victim = nearest_player_on_ray(world, shooter, start, delta,
                                         tr.fraction, locks, res, scratch);
  if (victim != nullptr) {
    res.hit_player = true;
    res.victim = victim->id;
    const int dmg =
        shooter.weapon == Weapon::kRailgun ? kRailgunDamage : kBlasterDamage;
    apply_damage(world, *victim, shooter.id, dmg, locks, events);
  }
  return res;
}

AttackResult throw_grenade(World& world, Entity& shooter, float pitch_deg,
                           vt::TimePoint now, NodeListLocks* locks,
                           EventSink* events, uint64_t order,
                           MoveScratch* scratch) {
  AttackResult res;
  if (now < shooter.next_attack || load_health(shooter) <= 0 ||
      shooter.grenades <= 0)
    return res;
  shooter.next_attack = now + kAttackCooldown;
  --shooter.grenades;
  res.fired = true;
  world.charge(world.costs().grenade_exec);

  const Vec3 start = eye_pos(shooter);
  const Vec3 dir = aim_dir(shooter, pitch_deg);
  const Vec3 delta = dir * kGrenadeRequestRange;

  // First segment is simulated now, inside the (expanded) locked region.
  const auto tr = world.collision().trace_box(start, start + delta,
                                              {-4, -4, -4}, {4, 4, 4});
  res.brushes_tested += tr.brushes_tested;
  world.charge(world.costs().per_brush_trace * tr.brushes_tested);

  Entity* victim = nearest_player_on_ray(world, shooter, start, delta,
                                         tr.fraction, locks, res, scratch);
  if (victim != nullptr) {
    // Direct hit within the request-time segment: full damage, detonate.
    res.hit_player = true;
    res.victim = victim->id;
    explode_at(world, shooter.id, victim->origin, locks, events,
               scratch != nullptr ? &scratch->candidates : nullptr);
    return res;
  }
  if (tr.hit()) {
    // Struck geometry within the segment: detonate at the impact point.
    explode_at(world, shooter.id, tr.endpos, locks, events,
               scratch != nullptr ? &scratch->candidates : nullptr);
    return res;
  }
  // Flight continues in the world-physics phase (type-1 object).
  world.queue_projectile(
      {shooter.id, tr.endpos, dir, now + kGrenadeLifetime, order});
  return res;
}

}  // namespace qserv::sim
