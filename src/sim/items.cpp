#include "src/sim/items.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace qserv::sim {

bool pickup_useful(const Entity& player, const Entity& item) {
  switch (item.item) {
    case spatial::ItemType::kHealth:
      // Regular health only tops up to the spawn level; megahealth
      // overheals to the hard cap (Quake rules).
      return load_health(player) < kSpawnHealth;
    case spatial::ItemType::kMegaHealth:
      return load_health(player) < kMaxHealth;
    case spatial::ItemType::kArmor:
      return player.armor < kMaxArmor;
    case spatial::ItemType::kWeapon:
      return player.weapon != Weapon::kRailgun;
    case spatial::ItemType::kAmmo:
      return true;
  }
  return false;
}

bool try_pickup(World& world, Entity& player, Entity& item, vt::TimePoint now,
                EventSink* events) {
  QSERV_CHECK(item.type == EntityType::kItem);
  if (!item.available || load_health(player) <= 0) return false;
  if (!pickup_useful(player, item)) return false;

  switch (item.item) {
    case spatial::ItemType::kHealth:
      store_health(player,
                   std::min(kMaxHealth, load_health(player) + kHealthAmount));
      break;
    case spatial::ItemType::kMegaHealth:
      store_health(player, std::min(kMaxHealth, load_health(player) +
                                                    kMegaHealthAmount));
      break;
    case spatial::ItemType::kArmor:
      player.armor = std::min(kMaxArmor, player.armor + kArmorAmount);
      break;
    case spatial::ItemType::kWeapon:
      player.weapon = Weapon::kRailgun;
      break;
    case spatial::ItemType::kAmmo:
      player.grenades += kAmmoGrenades;
      break;
  }
  item.available = false;
  item.respawn_at = now + kItemRespawn;
  world.mark_dirty(item.id);
  if (events != nullptr) {
    events->emit(
        make_event(EventKind::kPickup, player.id, item.id, item.origin));
  }
  return true;
}

}  // namespace qserv::sim
