#include "src/shard/manager.hpp"

#include <string>
#include <utility>

#include "src/obs/fleet.hpp"
#include "src/spatial/map.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"

namespace qserv::shard {

ShardManager::ShardManager(vt::Platform& platform, net::Transport& net,
                           const spatial::GameMap& map, Config cfg)
    : platform_(platform),
      net_(net),
      map_(map),
      cfg_(std::move(cfg)),
      router_(map.bounds, cfg_.shards, cfg_.boundary_margin) {
  QSERV_CHECK(cfg_.shards >= 1);
  // A shard's worker ports must fit inside its stride or two shards
  // would claim overlapping ports on the shared network.
  QSERV_CHECK(cfg_.server.threads <= static_cast<int>(kPortStride));
  shards_.reserve(static_cast<size_t>(cfg_.shards));
  mailboxes_.reserve(static_cast<size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i) {
    core::ServerConfig sc = cfg_.server;
    sc.base_port =
        static_cast<uint16_t>(cfg_.server.base_port + i * kPortStride);
    // Independent RNG stream per shard: one shard's world events cannot
    // perturb another's, so an unaffected shard replays bit-identically
    // across runs regardless of what its neighbors went through.
    sc.seed = derive_seed(cfg_.server.seed, streams::kShardBase +
                                                static_cast<uint64_t>(i));
    if (sc.recovery.enabled) {
      sc.recovery.dump_dir = (sc.recovery.dump_dir.empty()
                                  ? std::string()
                                  : sc.recovery.dump_dir + "/") +
                             "shard-" + std::to_string(i);
    }
    mailboxes_.push_back(
        std::make_unique<HandoffMailbox>(platform_, cfg_.mailbox_capacity));
    shards_.push_back(
        std::make_unique<Shard>(platform_, net_, map_, *this, sc, i));
  }
  supervisor_ = std::make_unique<ShardSupervisor>(platform_, *this);
}

ShardManager::~ShardManager() = default;

void ShardManager::start() {
  for (auto& s : shards_) s->start();
  supervisor_->start();
}

void ShardManager::request_stop() {
  supervisor_->request_stop();
  for (auto& s : shards_) s->request_stop();
}

uint16_t ShardManager::join_port(int ordinal, int expected_players) const {
  const int n = shards();
  const int home = ordinal % n;
  const int within = ordinal / n;
  const int expected_within = (expected_players + n - 1) / n;
  QSERV_CHECK(!shards_[static_cast<size_t>(home)]->down());
  return shards_[static_cast<size_t>(home)]->server()->port_for_client(
      within, std::max(1, expected_within));
}

bool ShardManager::post_handoff(int target, core::Server::SessionTransfer t) {
  const int n = shards();
  t.posted_at_ns = platform_.now().ns;
  for (int k = 0; k < n; ++k) {
    const int cand = (target + k) % n;
    if (shards_[static_cast<size_t>(cand)]->down()) continue;
    if (mailboxes_[static_cast<size_t>(cand)]->post(std::move(t)))
      return true;
    // Mailbox at capacity: an overflow shed. The session is dropped here
    // rather than forwarded — spilling a backed-up shard's transfers onto
    // its neighbor would propagate the backlog across the fleet.
    overflow_sheds_.fetch_add(1, std::memory_order_relaxed);
    if (observer_ != nullptr)
      observer_->on_handoff_overflow(cand, t.flow_id);
    return false;
  }
  overflow_sheds_.fetch_add(1, std::memory_order_relaxed);
  return false;  // whole fleet down
}

int ShardManager::total_connected() const {
  int total = 0;
  for (const auto& s : shards_) {
    if (!s->down() && s->server() != nullptr)
      total += s->server()->connected_clients();
  }
  return total;
}

}  // namespace qserv::shard
