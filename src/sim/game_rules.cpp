#include "src/sim/game_rules.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace qserv::sim {

bool apply_damage(World& world, Entity& victim, uint32_t attacker_id,
                  int damage, NodeListLocks* locks, EventSink* events) {
  QSERV_CHECK(victim.is_player());
  const int health = load_health(victim);
  if (health <= 0 || damage <= 0) return false;

  const int absorbable = (damage * 2) / 3;
  const int absorbed = std::min(victim.armor, absorbable);
  victim.armor -= absorbed;
  const int left = health - (damage - absorbed);
  store_health(victim, left);

  if (left > 0) return false;

  // Death: score the frag and respawn the victim in place.
  ++victim.deaths;
  Entity* attacker = world.get(attacker_id);
  if (attacker != nullptr && attacker->is_player() &&
      attacker_id != victim.id) {
    ++attacker->frags;
  } else {
    --victim.frags;  // environment/self kill
  }
  if (events != nullptr) {
    events->emit(
        make_event(EventKind::kFrag, attacker_id, victim.id, victim.origin));
  }
  world.respawn_player(victim, locks, events);
  return true;
}

std::vector<ScoreEntry> scoreboard(const World& world) {
  std::vector<ScoreEntry> out;
  world.for_each_entity([&](const Entity& e) {
    if (e.is_player()) out.push_back({e.id, e.name, e.frags, e.deaths});
  });
  std::sort(out.begin(), out.end(), [](const ScoreEntry& a, const ScoreEntry& b) {
    return a.frags != b.frags ? a.frags > b.frags : a.id < b.id;
  });
  return out;
}

}  // namespace qserv::sim
