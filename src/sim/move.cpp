#include "src/sim/move.hpp"

#include <algorithm>
#include <cmath>

#include "src/sim/combat.hpp"
#include "src/sim/items.hpp"
#include "src/util/check.hpp"

namespace qserv::sim {

namespace {

// Maximum distance any single move command can cover: max speed for the
// longest command duration the protocol allows, plus gravity-driven fall.
float max_travel(const net::MoveCmd& cmd) {
  const float dt = static_cast<float>(cmd.msec) * 1e-3f;
  return kMaxPlayerSpeed * dt + 0.5f * kGravity * dt * dt + 8.0f;
}

constexpr float kTouchMargin = 2.0f;

// Clips velocity against a plane normal (Quake's PM_ClipVelocity with
// overbounce 1): removes the into-plane component.
Vec3 clip_velocity(const Vec3& v, const Vec3& normal) {
  return v - normal * v.dot(normal);
}

struct ClipContext {
  World& world;
  const std::vector<uint32_t>& solids;  // candidate blocking entities
  const Entity& self;
  MoveStats& stats;
};

// Trace against world brushes and candidate solid entities combined.
spatial::TraceResult clip_move(ClipContext& ctx, const Vec3& start,
                               const Vec3& end) {
  auto tr = ctx.world.collision().trace_box(start, end, ctx.self.mins,
                                            ctx.self.maxs);
  ++ctx.stats.traces;
  ctx.stats.brushes_tested += tr.brushes_tested;
  ctx.world.charge(ctx.world.costs().per_brush_trace * tr.brushes_tested);

  // Clip against other players: expand their boxes by our extents and
  // intersect the origin ray (Minkowski), keeping the nearest hit.
  const Vec3 delta = end - start;
  for (const uint32_t id : ctx.solids) {
    const Entity* e = ctx.world.get(id);
    if (e == nullptr || e->id == ctx.self.id || !e->solid || !e->is_player())
      continue;
    const Aabb expanded{e->origin + e->mins - ctx.self.maxs,
                        e->origin + e->maxs - ctx.self.mins};
    Vec3 normal;
    const float f = spatial::ray_vs_aabb(start, delta, expanded, &normal);
    if (f >= 0.0f && f < tr.fraction) {
      // Back off as the brush trace does.
      const float len = delta.length();
      const float backoff = len > 0.0f ? spatial::kTraceEpsilon / len : 0.0f;
      tr.fraction = std::max(0.0f, f - backoff);
      tr.endpos = start + delta * tr.fraction;
      tr.normal = normal;
    }
  }
  return tr;
}

}  // namespace

Aabb move_bounds(const Entity& player, const net::MoveCmd& cmd) {
  return load_bounds(player).expanded(max_travel(cmd) + kTouchMargin + 16.0f);
}

MoveStats execute_move(World& world, Entity& player, const net::MoveCmd& cmd,
                       vt::TimePoint now, NodeListLocks* locks,
                       EventSink* events, uint64_t order,
                       MoveScratch* scratch) {
  MoveStats stats;
  world.charge(world.costs().move_base);
  if (!player.alive()) return stats;

  player.yaw_deg = cmd.yaw_deg;
  const float dt = static_cast<float>(cmd.msec) * 1e-3f;

  // Gather everything the move may interact with (the paper's object
  // list for the move), from the locked region. gather() appends, so the
  // reused scratch buffer is cleared first.
  GatherStats gs;
  std::vector<uint32_t> local_nearby;
  std::vector<uint32_t>& nearby =
      scratch != nullptr ? scratch->nearby : local_nearby;
  nearby.clear();
  world.gather(move_bounds(player, cmd), nearby, locks, &gs);
  stats.nodes_visited += gs.nodes_visited;
  stats.entities_scanned += gs.entities_scanned;

  // --- wish velocity from the command (ground movement) ---
  const ViewAngles view{cmd.yaw_deg, 0.0f};
  Vec3 wish = view.forward() * cmd.forward + view.right() * cmd.side;
  wish.z = 0.0f;
  const float wish_speed = std::min(wish.length(), kMaxPlayerSpeed);
  const Vec3 wish_dir = wish.normalized();

  Vec3 vel = player.velocity;
  if (player.on_ground) {
    // Friction.
    const float speed = std::sqrt(vel.x * vel.x + vel.y * vel.y);
    if (speed > 0.1f) {
      const float drop = speed * kGroundFriction * dt;
      const float scale = std::max(0.0f, speed - drop) / speed;
      vel.x *= scale;
      vel.y *= scale;
    } else {
      vel.x = vel.y = 0.0f;
    }
    // Acceleration toward the wish velocity.
    const float current = vel.dot(wish_dir);
    const float add = std::min(wish_speed - current, kPlayerAccel * wish_speed * dt);
    if (add > 0.0f) vel += wish_dir * add;
    if ((cmd.buttons & net::kButtonJump) != 0) {
      vel.z = kJumpVelocity;
      player.on_ground = false;
    }
  }
  if (!player.on_ground) vel.z -= kGravity * dt;

  // --- slide move (PM_FlyMove): up to 4 clip iterations ---
  ClipContext ctx{world, nearby, player, stats};
  Vec3 pos = player.origin;
  float time_left = dt;
  for (int iter = 0; iter < 4 && time_left > 0.0f; ++iter) {
    const Vec3 target = pos + vel * time_left;
    const auto tr = clip_move(ctx, pos, target);
    if (tr.start_solid) break;  // wedged; stay put this move
    pos = tr.endpos;
    if (!tr.hit()) break;
    time_left *= 1.0f - tr.fraction;
    vel = clip_velocity(vel, tr.normal);
    if (tr.normal.z > 0.7f) player.on_ground = true;
  }
  store_origin(player, pos);
  player.velocity = vel;

  // Ground check (short downward probe).
  {
    const auto tr = clip_move(ctx, pos, pos + Vec3{0, 0, -2.0f});
    player.on_ground = tr.hit() && tr.normal.z > 0.7f;
    if (player.on_ground && vel.z < 0.0f) player.velocity.z = 0.0f;
  }

  // --- touch interactions within the final box ---
  const Aabb touch_box = player.bounds().expanded(kTouchMargin);
  for (const uint32_t id : nearby) {
    Entity* e = world.get(id);
    if (e == nullptr || e->id == player.id) continue;
    if (!e->bounds().intersects(touch_box)) continue;
    if (e->type == EntityType::kItem) {
      if (try_pickup(world, player, *e, now, events)) {
        ++stats.touches;
        world.charge(world.costs().per_touch);
      }
    } else if (e->type == EntityType::kTeleporter) {
      // Teleport: relocate to the destination — possibly a far region of
      // the areanode tree (§2.3).
      store_origin(player, e->teleport_dest);
      player.velocity = Vec3{};
      stats.teleported = true;
      ++stats.touches;
      world.charge(world.costs().per_touch);
      if (events != nullptr) {
        events->emit(
            make_event(EventKind::kTeleport, player.id, 0, player.origin));
      }
      break;  // one teleport per move
    }
  }

  // --- long-range actions (caller holds the long-range locks) ---
  if ((cmd.buttons & net::kButtonAttack) != 0) {
    const auto r = fire_hitscan(world, player, cmd.pitch_deg, now, locks,
                                events, scratch);
    stats.fired_hitscan = r.fired;
    stats.hit_player |= r.hit_player;
    stats.brushes_tested += r.brushes_tested;
    stats.entities_scanned += r.entities_scanned;
  } else if ((cmd.buttons & net::kButtonThrow) != 0) {
    const auto r = throw_grenade(world, player, cmd.pitch_deg, now, locks,
                                 events, order, scratch);
    stats.threw_grenade = r.fired;
    stats.hit_player |= r.hit_player;
    stats.brushes_tested += r.brushes_tested;
    stats.entities_scanned += r.entities_scanned;
  }

  // Remove the player's object from its old areanode and link it at the
  // new position.
  world.relink(player, locks);
  return stats;
}

}  // namespace qserv::sim
