// The game world: entity storage, areanode linkage, and the world-physics
// phase. This is the shared mutable state the paper's locking protocols
// protect.
//
// Concurrency contract (matching the parallel server design):
//  * entity state is mutated during request processing only under the
//    region locks covering the entity's location;
//  * areanode object lists are mutated/scanned under per-node list locks
//    (the paper's "parent areanode" locks), passed in as a NodeListLocks;
//    a null NodeListLocks means the caller is single-threaded (sequential
//    server, world phase, setup); a parent node's list holds entities
//    outside the scanning thread's region, so gather() reads origins with
//    load_origin() and request processing writes them with store_origin();
//  * entity *creation/destruction* happens only in single-threaded phases;
//    request processing defers projectile spawns through the thread-safe
//    queue_projectile(), and the world phase materializes them — exactly
//    the paper's "type 1" objects whose simulation completes during world
//    physics;
//  * every mutation of a field the entity view carries (origin, yaw,
//    cluster, type, item availability, alive state) marks the entity
//    dirty — link/relink and spawn/remove do so themselves, a restore
//    marks every slot, and other direct field writes call mark_dirty().
//    A move always ends in relink and a death respawns through relink,
//    so moves (yaw, origin, teleports) and deaths need no mark of their
//    own; a hit that does not kill leaves the alive state unchanged.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/sim/cost_model.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/frame_view.hpp"
#include "src/spatial/areanode_tree.hpp"
#include "src/spatial/collision.hpp"
#include "src/spatial/map.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::sim {

// Per-node object-list locks, implemented by core/lock_manager in the
// parallel server. lock/unlock pairs must be short (list access only).
class NodeListLocks {
 public:
  virtual ~NodeListLocks() = default;
  virtual void lock_list(int node_index) = 0;
  virtual void unlock_list(int node_index) = 0;
};

// Sink for global game events (the global state buffer in the server).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const net::GameEvent& e) = 0;
};

net::GameEvent make_event(EventKind kind, uint32_t a, uint32_t b,
                          const Vec3& pos);

struct GatherStats {
  int nodes_visited = 0;
  int entities_scanned = 0;
};

class World {
 public:
  struct Config {
    int areanode_depth = 4;  // 31 nodes / 16 leaves, the paper's default
    uint64_t seed = 1;
  };

  // `platform` may be null (pure-logic tests): no compute is charged and
  // internal mutexes are omitted.
  World(const spatial::GameMap& map, Config cfg,
        vt::Platform* platform = nullptr, CostModel costs = CostModel{});

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Pre-sizes entity storage so spawns never touch the entity vector
  // itself — neither its data pointer nor its size — once concurrent
  // readers exist. New slots go on the free list; a vector whose size
  // still changed under a connect raced with get() on other threads.
  void reserve_entities(size_t n);

  // --- entity management (single-threaded phases only) ---
  Entity& spawn_entity(EntityType type);
  void remove_entity(uint32_t id, NodeListLocks* locks = nullptr);
  Entity* get(uint32_t id);
  const Entity* get(uint32_t id) const;
  size_t active_entities() const { return active_count_; }

  // Iterates active entities in id order.
  void for_each_entity(const std::function<void(Entity&)>& fn);
  void for_each_entity(const std::function<void(const Entity&)>& fn) const;

  // --- areanode linkage ---
  void link(Entity& e, NodeListLocks* locks = nullptr);
  void unlink(Entity& e, NodeListLocks* locks = nullptr);
  void relink(Entity& e, NodeListLocks* locks = nullptr);

  // Appends ids of active entities whose bounds intersect `box`. Scans
  // node object lists under `locks` (if provided) and charges traversal
  // costs.
  void gather(const Aabb& box, std::vector<uint32_t>& out,
              NodeListLocks* locks = nullptr,
              GatherStats* stats = nullptr) const;

  // --- players ---
  Entity& spawn_player(const std::string& name,
                       NodeListLocks* locks = nullptr);
  // Moves a (dead) player to a fresh spawn point, restores stats, relinks.
  // Spawn placement is drawn from a stateless RNG keyed on
  // (seed, player id, death count) — not the shared world RNG — so
  // respawns reached concurrently from request processing neither race on
  // RNG state nor depend on cross-thread ordering. Deterministic replay
  // depends on this.
  void respawn_player(Entity& player, NodeListLocks* locks,
                      EventSink* events);
  // A spawn point drawn from `rng`; if `check_blocked`, tries a few times
  // to find one clear of players (gathers — single-threaded phases only).
  spatial::SpawnPoint pick_spawn_point(Rng& rng, bool check_blocked = true);

  // --- projectiles ---
  struct ProjectileSpec {
    uint32_t owner = 0;
    Vec3 origin;
    Vec3 dir;  // unit
    vt::TimePoint expire_at{};
    // Serialization index of the move that threw it. The world phase
    // materializes specs in this order (not queue-arrival order, which is
    // scheduling-dependent), so entity-id assignment replays exactly.
    uint64_t order = 0;
  };
  // Thread-safe; callable from request processing.
  void queue_projectile(const ProjectileSpec& spec);
  size_t pending_projectiles() const { return pending_projectiles_.size(); }

  // --- world physics phase (single-threaded) ---
  // Steps the live projectiles and checks the items through the id lists
  // below, never the entity storage; its containers are world-owned and
  // reused, so steady state allocates nothing.
  void world_phase(vt::TimePoint now, vt::Duration dt, EventSink& events);
  // Ascending ids of the live projectiles and items, kept by spawn,
  // remove and restore.
  const std::vector<uint32_t>& projectile_ids() const {
    return projectile_ids_;
  }
  const std::vector<uint32_t>& item_ids() const { return item_ids_; }

  // --- SoA entity view (reply phase, DESIGN.md §15) ---
  // Records that entity `id` changed a field the view carries. Safe from
  // concurrent request processing: one byte per id, relaxed atomic.
  void mark_dirty(uint32_t id) {
    std::atomic_ref<uint8_t>(dirty_[id]).store(1, std::memory_order_relaxed);
  }
  // Patches the view rows of every entity marked since the last refresh.
  // Host-only: charges nothing.
  // Single-threaded, at the flip into the reply phase.
  void refresh_view();
  const FrameView& view() const { return view_; }

  // --- accessors ---
  const spatial::GameMap& map() const { return map_; }
  const spatial::CollisionWorld& collision() const { return collision_; }
  const spatial::AreanodeTree& tree() const { return tree_; }
  spatial::AreanodeTree& tree() { return tree_; }
  const CostModel& costs() const { return costs_; }
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }
  uint64_t seed() const { return seed_; }
  // Raw storage views for checkpointing: every slot (active or not) and
  // the free-id stack whose order determines future id assignment.
  size_t entity_storage_size() const { return entities_.size(); }
  const std::vector<uint32_t>& free_ids() const { return free_ids_; }

  // --- checkpoint restore (single-threaded, before any traffic) ---
  // Clears all entities, areanode lists and the free stack, and marks
  // every slot dirty so the next refresh re-derives the whole view.
  void begin_restore();
  // Places a checkpointed entity at its recorded id (storage must have
  // been pre-sized past it); does NOT link — links are restored per node
  // via restore_link so list order round-trips exactly.
  void restore_entity(const Entity& e);
  // Appends `id` to `node`'s object list and records the link.
  void restore_link(uint32_t id, int node);
  // Installs the recorded free-id stack (checkpointed bottom-to-top).
  void finish_restore(std::vector<uint32_t> free_ids);
  // Shifts every absolute-time entity field (attack cooldowns, item
  // respawns, projectile expiry) by `delta` — warm restart maps
  // checkpoint-time T onto restart-time now.
  void rebase_times(vt::Duration delta);

  // Charges virtual CPU time if a platform is attached.
  void charge(vt::Duration d) const {
    if (platform_ != nullptr && d.ns > 0) platform_->compute(d);
  }
  // Swaps the attached platform (null = detach cost charging). Restore
  // and journal-tail replay re-execute work whose cost already happened
  // in the original timeline — re-charging would double-count, and the
  // caller (a shard supervisor's timer) may be outside any schedulable
  // fiber. Returns the previous platform so a guard can reattach it.
  vt::Platform* exchange_platform(vt::Platform* p) {
    vt::Platform* old = platform_;
    platform_ = p;
    return old;
  }

 private:
  spatial::GameMap map_;
  spatial::CollisionWorld collision_;
  spatial::AreanodeTree tree_;
  vt::Platform* platform_;
  CostModel costs_;
  uint64_t seed_;
  Rng rng_;

  std::vector<Entity> entities_;
  std::vector<uint32_t> free_ids_;
  size_t active_count_ = 0;
  FrameView view_;
  std::vector<uint8_t> dirty_;  // one byte per entity slot

  std::unique_ptr<vt::Mutex> projectile_mu_;  // null without a platform
  std::vector<ProjectileSpec> pending_projectiles_;

  std::vector<uint32_t> projectile_ids_, item_ids_;
  // The id list an entity of `type` belongs on, or null.
  std::vector<uint32_t>* ids_of(EntityType type) {
    return type == EntityType::kProjectile ? &projectile_ids_
           : type == EntityType::kItem     ? &item_ids_
                                           : nullptr;
  }
  // World-phase scratch: the specs being materialized, the projectile ids
  // being stepped (an explosion removes from the live list) and gathers.
  std::vector<ProjectileSpec> specs_;
  std::vector<uint32_t> stepping_, hits_;
};

}  // namespace qserv::sim
