#include "src/sim/world.hpp"

#include <algorithm>

#include "src/sim/combat.hpp"
#include "src/util/check.hpp"

namespace qserv::sim {

net::GameEvent make_event(EventKind kind, uint32_t a, uint32_t b,
                          const Vec3& pos) {
  net::GameEvent e;
  e.kind = static_cast<uint8_t>(kind);
  e.a = a;
  e.b = b;
  e.pos = pos;
  return e;
}

World::World(const spatial::GameMap& map, Config cfg, vt::Platform* platform,
             CostModel costs)
    : map_(map),
      collision_(map.brushes),
      tree_(map.bounds, cfg.areanode_depth),
      platform_(platform),
      costs_(costs),
      seed_(cfg.seed),
      rng_(derive_seed(cfg.seed, streams::kWorld)) {
  if (platform_ != nullptr) projectile_mu_ = platform_->make_mutex("projq");

  // Materialize static entities from the map: items and teleporter pads.
  for (const auto& it : map_.items) {
    Entity& e = spawn_entity(EntityType::kItem);
    e.origin = it.origin;
    e.mins = {-12, -12, -8};
    e.maxs = {12, 12, 24};
    e.item = it.type;
    e.available = true;
    link(e);
  }
  for (const auto& t : map_.teleporters) {
    Entity& e = spawn_entity(EntityType::kTeleporter);
    e.origin = t.origin;
    e.mins = {-24, -24, -24};
    e.maxs = {24, 24, 8};
    e.teleport_dest = t.destination;
    link(e);
  }
}

void World::reserve_entities(size_t n) {
  if (n <= entities_.size()) return;
  const uint32_t first = static_cast<uint32_t>(entities_.size());
  entities_.resize(n);
  dirty_.resize(n);
  // Fresh ids go on the free stack in descending order so they are
  // handed out lowest-first, matching the old grow-on-demand order.
  free_ids_.reserve(free_ids_.size() + (n - first));
  for (uint32_t id = static_cast<uint32_t>(n); id-- > first;)
    free_ids_.push_back(id);
}

Entity& World::spawn_entity(EntityType type) {
  uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    // Pool exhausted (or a standalone World that never pre-sized):
    // grow. Only safe while no other thread is reading the vector.
    id = static_cast<uint32_t>(entities_.size());
    entities_.emplace_back();
    dirty_.push_back(0);
  }
  Entity& e = entities_[id];
  e = Entity{};
  e.id = id;
  e.type = type;
  e.active = true;
  ++active_count_;
  mark_dirty(id);
  if (std::vector<uint32_t>* ids = ids_of(type))
    ids->insert(std::lower_bound(ids->begin(), ids->end(), id), id);
  return e;
}

void World::remove_entity(uint32_t id, NodeListLocks* locks) {
  Entity* e = get(id);
  QSERV_CHECK_MSG(e != nullptr, "removing missing entity");
  if (e->areanode >= 0) unlink(*e, locks);
  if (std::vector<uint32_t>* ids = ids_of(e->type))
    ids->erase(std::lower_bound(ids->begin(), ids->end(), id));
  e->active = false;
  e->type = EntityType::kNone;
  free_ids_.push_back(id);
  --active_count_;
  mark_dirty(id);
}

Entity* World::get(uint32_t id) {
  if (id >= entities_.size() || !entities_[id].active) return nullptr;
  return &entities_[id];
}

const Entity* World::get(uint32_t id) const {
  if (id >= entities_.size() || !entities_[id].active) return nullptr;
  return &entities_[id];
}

void World::for_each_entity(const std::function<void(Entity&)>& fn) {
  for (auto& e : entities_) {
    if (e.active) fn(e);
  }
}

void World::for_each_entity(
    const std::function<void(const Entity&)>& fn) const {
  for (const auto& e : entities_) {
    if (e.active) fn(e);
  }
}

void World::link(Entity& e, NodeListLocks* locks) {
  QSERV_CHECK_MSG(e.areanode < 0, "linking an already-linked entity");
  const int node = tree_.link_node_for(e.bounds());
  if (locks != nullptr) locks->lock_list(node);
  tree_.link(e.id, e.bounds());
  if (locks != nullptr) locks->unlock_list(node);
  e.areanode = node;
  // Track the PVS cluster alongside the areanode link (reply-phase
  // interest checks read it instead of ray tracing).
  if (!map_.pvs.empty()) e.cluster = map_.pvs.cluster_of(e.origin);
  // Every origin change ends in a (re)link, so this covers movement.
  mark_dirty(e.id);
}

void World::unlink(Entity& e, NodeListLocks* locks) {
  QSERV_CHECK_MSG(e.areanode >= 0, "unlinking an unlinked entity");
  if (locks != nullptr) locks->lock_list(e.areanode);
  tree_.unlink(e.id, e.areanode);
  if (locks != nullptr) locks->unlock_list(e.areanode);
  e.areanode = -1;
}

void World::relink(Entity& e, NodeListLocks* locks) {
  if (e.areanode >= 0) unlink(e, locks);
  link(e, locks);
}

void World::gather(const Aabb& box, std::vector<uint32_t>& out,
                   NodeListLocks* locks, GatherStats* stats) const {
  GatherStats local;
  tree_.traverse(box, [&](int node_index) {
    ++local.nodes_visited;
    if (locks != nullptr) locks->lock_list(node_index);
    const auto& objects = tree_.node(node_index).objects;
    int scanned = 0;
    for (const uint32_t id : objects) {
      ++scanned;
      const Entity& e = entities_[id];
      if (e.active && Aabb::at(load_origin(e), e.mins, e.maxs).intersects(box))
        out.push_back(id);
    }
    // Scan cost is charged while the list lock is held: this is exactly
    // the paper's parent-areanode lock hold time.
    charge(costs_.per_node_visit + costs_.per_entity_scan * scanned);
    if (locks != nullptr) locks->unlock_list(node_index);
    local.entities_scanned += scanned;
  });
  if (stats != nullptr) {
    stats->nodes_visited += local.nodes_visited;
    stats->entities_scanned += local.entities_scanned;
  }
  // Canonical candidate order. Node lists are in link/unlink history
  // order, which is not part of world state: a restored world (or a
  // differently interleaved parallel run) would hand order-sensitive
  // consumers — item-touch sequence, first-teleporter-wins — a different
  // iteration order over the same state. Sorting by id makes every
  // gather a pure function of entity state, which deterministic replay
  // depends on (DESIGN.md §9).
  std::sort(out.begin(), out.end());
}

spatial::SpawnPoint World::pick_spawn_point(Rng& rng, bool check_blocked) {
  QSERV_CHECK_MSG(!map_.spawns.empty(), "map has no spawn points");
  // Try a few random spawn points and take the first not blocked by a
  // player; fall back to a random one (telefrag-free: we allow overlap).
  if (check_blocked) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto& sp =
          map_.spawns[rng.below(static_cast<uint64_t>(map_.spawns.size()))];
      std::vector<uint32_t> nearby;
      gather(Aabb::at(sp.origin, kPlayerMins, kPlayerMaxs), nearby);
      bool blocked = false;
      for (const uint32_t id : nearby) blocked |= entities_[id].is_player();
      if (!blocked) return sp;
    }
  }
  return map_.spawns[rng.below(static_cast<uint64_t>(map_.spawns.size()))];
}

Entity& World::spawn_player(const std::string& name, NodeListLocks* locks) {
  Entity& e = spawn_entity(EntityType::kPlayer);
  const auto sp = pick_spawn_point(rng_);
  e.name = name;
  e.origin = sp.origin;
  e.yaw_deg = sp.yaw_deg;
  e.mins = kPlayerMins;
  e.maxs = kPlayerMaxs;
  e.solid = true;
  e.health = kSpawnHealth;
  e.armor = 0;
  e.grenades = kStartGrenades;
  e.weapon = Weapon::kBlaster;
  link(e, locks);
  return e;
}

void World::respawn_player(Entity& player, NodeListLocks* locks,
                           EventSink* events) {
  // Stateless placement keyed on (seed, id, deaths): respawn runs inside
  // request processing under region locks, where drawing the shared world
  // RNG would make results depend on cross-thread execution order (and
  // the blocked-spawn gather would scan lists outside this move's locked
  // region). Placement is blind — overlap is allowed, as in the fallback.
  Rng r(derive_seed(derive_seed(seed_, streams::kRespawn),
                    (static_cast<uint64_t>(player.id) << 32) |
                        static_cast<uint32_t>(player.deaths)));
  const auto sp = pick_spawn_point(r, /*check_blocked=*/false);
  store_origin(player, sp.origin);
  player.yaw_deg = sp.yaw_deg;
  player.velocity = Vec3{};
  store_health(player, kSpawnHealth);
  player.armor = 0;
  player.grenades = kStartGrenades;
  player.weapon = Weapon::kBlaster;
  player.on_ground = false;
  relink(player, locks);
  if (events != nullptr)
    events->emit(make_event(EventKind::kSpawn, player.id, 0, player.origin));
}

void World::queue_projectile(const ProjectileSpec& spec) {
  if (projectile_mu_ != nullptr) {
    vt::LockGuard g(*projectile_mu_);
    pending_projectiles_.push_back(spec);
  } else {
    pending_projectiles_.push_back(spec);
  }
}

void World::world_phase(vt::TimePoint now, vt::Duration dt,
                        EventSink& events) {
  charge(costs_.world_base);

  // Materialize projectiles thrown during the previous request phase.
  specs_.clear();
  if (projectile_mu_ != nullptr) {
    vt::LockGuard g(*projectile_mu_);
    specs_.swap(pending_projectiles_);
  } else {
    specs_.swap(pending_projectiles_);
  }
  // Queue arrival order is scheduling-dependent in the parallel server;
  // the throwing move's serialization index is not. Materializing in
  // index order keeps entity-id assignment replayable. A stable insertion
  // sort (specs without an index keep arrival order): the queue is short
  // and std::stable_sort would allocate.
  const auto by_order = [](const ProjectileSpec& a, const ProjectileSpec& b) {
    return a.order < b.order;
  };
  for (auto it = specs_.begin(); it != specs_.end(); ++it)
    std::rotate(std::upper_bound(specs_.begin(), it, *it, by_order), it,
                it + 1);
  for (const auto& spec : specs_) {
    Entity& e = spawn_entity(EntityType::kProjectile);
    e.origin = spec.origin;
    e.dir = spec.dir;
    e.velocity = spec.dir * kGrenadeSpeed;
    e.mins = {-4, -4, -4};
    e.maxs = {4, 4, 4};
    e.owner = spec.owner;
    e.expire_at = spec.expire_at;
    link(e);
  }

  // Step live projectiles over a copy of the id list, since an explosion
  // removes its projectile from the live one.
  stepping_.assign(projectile_ids_.begin(), projectile_ids_.end());
  for (const uint32_t id : stepping_) {
    Entity& e = entities_[id];
    const Vec3 target = e.origin + e.velocity * static_cast<float>(dt.seconds());
    const auto tr = collision_.trace_box(e.origin, target, e.mins, e.maxs);
    charge(costs_.per_brush_trace * tr.brushes_tested);
    e.origin = tr.endpos;
    // Direct hits on players.
    hits_.clear();
    gather(e.bounds().expanded(8.0f), hits_);
    bool direct = false;
    for (const uint32_t hid : hits_) {
      if (entities_[hid].is_player() && entities_[hid].health > 0 &&
          hid != e.owner) {
        direct = true;
        break;
      }
    }
    if (tr.hit() || direct || now >= e.expire_at) {
      explode_at(*this, e.owner, e.origin, nullptr, &events, &hits_);
      remove_entity(id);
    } else {
      relink(e);
    }
  }
  charge(costs_.per_projectile_step * static_cast<int64_t>(stepping_.size()));

  // Item respawns.
  for (const uint32_t id : item_ids_) {
    Entity& e = entities_[id];
    if (!e.available && now >= e.respawn_at) {
      e.available = true;
      mark_dirty(e.id);
    }
  }
  charge(costs_.per_item_check * static_cast<int64_t>(item_ids_.size()));
}

void World::begin_restore() {
  for (auto& e : entities_) e = Entity{};
  free_ids_.clear();
  active_count_ = 0;
  tree_.clear_all_objects();
  pending_projectiles_.clear();
  projectile_ids_.clear();
  item_ids_.clear();
  // Every slot may change: the next refresh re-derives each row.
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{1});
}

void World::restore_entity(const Entity& e) {
  QSERV_CHECK_MSG(e.id < entities_.size(),
                  "restored entity id beyond pre-sized storage");
  Entity& slot = entities_[e.id];
  QSERV_CHECK_MSG(!slot.active, "duplicate entity id in checkpoint");
  slot = e;
  slot.areanode = -1;  // links are restored separately, per node
  ++active_count_;
  if (std::vector<uint32_t>* ids = ids_of(e.type))
    ids->insert(std::lower_bound(ids->begin(), ids->end(), e.id), e.id);
}

void World::restore_link(uint32_t id, int node) {
  Entity* e = get(id);
  QSERV_CHECK_MSG(e != nullptr, "checkpoint links a missing entity");
  QSERV_CHECK_MSG(e->areanode < 0, "checkpoint links an entity twice");
  tree_.restore_object(node, id);
  e->areanode = node;
}

void World::finish_restore(std::vector<uint32_t> free_ids) {
  free_ids_ = std::move(free_ids);
}

void World::refresh_view() {
  view_.refresh(*this, dirty_);
}

void World::rebase_times(vt::Duration delta) {
  for (auto& e : entities_) {
    if (!e.active) continue;
    if (e.next_attack.ns != 0) e.next_attack = e.next_attack + delta;
    if (e.respawn_at.ns != 0) e.respawn_at = e.respawn_at + delta;
    if (e.expire_at.ns != 0) e.expire_at = e.expire_at + delta;
  }
}

}  // namespace qserv::sim
