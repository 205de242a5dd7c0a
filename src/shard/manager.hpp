// Multi-shard engine: N independent Server engines in one process, each
// owning an X-slab of the map (ShardRouter), wired together by handoff
// mailboxes and watched by a ShardSupervisor. Each
// shard gets its own port block, derived RNG seed, and recovery namespace
// — a crash in one shard's failure domain never touches another's state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/shard/config.hpp"
#include "src/shard/mailbox.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard.hpp"
#include "src/shard/supervisor.hpp"

namespace qserv::obs {
class FleetObs;
}

namespace qserv::shard {

class ShardManager {
 public:
  ShardManager(vt::Platform& platform, net::Transport& net,
               const spatial::GameMap& map, Config cfg);
  ~ShardManager();

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  // Starts every shard engine, then arms the supervisor.
  void start();
  // Disarms the supervisor first (so a late tick cannot resurrect a
  // stopping engine), then stops the shards.
  void request_stop();

  const Config& config() const { return cfg_; }
  const ShardRouter& router() const { return router_; }
  vt::Platform& platform() { return platform_; }

  int shards() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int i) { return *shards_[i]; }
  const Shard& shard(int i) const { return *shards_[i]; }
  HandoffMailbox& mailbox(int i) { return *mailboxes_[i]; }
  ShardSupervisor& supervisor() { return *supervisor_; }
  const ShardSupervisor& supervisor() const { return *supervisor_; }

  // Initial join endpoint for client ordinal `i` of `expected` total:
  // clients stripe across shards, then block-assign within the shard's
  // worker threads (the §3.1 static assignment, per shard).
  uint16_t join_port(int ordinal, int expected_players) const;

  // Queues a session for adoption by `target`'s next master window,
  // stamping posted_at_ns for the supervisor's adopt-timeout reclaim. A
  // down target forwards to the next live shard. Returns false — and
  // counts an overflow shed — when the candidate's mailbox is at capacity
  // or no live shard remains (the session is dropped, not stranded).
  bool post_handoff(int target, core::Server::SessionTransfer t);

  // Convenience fault injection: crash shard `i`'s engine.
  void crash_shard(int i) { shards_[i]->inject_crash(); }

  // --- fleet observation (obs::FleetObs) ---
  // Install before start(); `o` must outlive the fleet. Null = unobserved
  // (every emission site is one pointer check).
  void set_observer(obs::FleetObs* o) { observer_ = o; }
  obs::FleetObs* observer() const { return observer_; }
  // Next causal-trace flow id (1-based; 0 means untraced). Called from
  // any master window, so the counter is atomic.
  uint64_t next_flow_id() {
    return flow_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t flows_issued() const {
    return flow_ids_.load(std::memory_order_relaxed);
  }

  // --- containment accounting ---
  // Sessions dropped because every candidate mailbox was at capacity (or
  // the whole fleet was down): the overflow-shed count.
  uint64_t overflow_sheds() const {
    return overflow_sheds_.load(std::memory_order_relaxed);
  }
  // Sessions bounced back toward their source shard instead of being left
  // stranded (supervisor adopt-timeout reclaim + adopt retry-budget
  // exhaustion). Incremented via count_handoff_return().
  uint64_t handoffs_returned() const {
    return handoffs_returned_.load(std::memory_order_relaxed);
  }
  void count_handoff_return() {
    handoffs_returned_.fetch_add(1, std::memory_order_relaxed);
  }

  // Connected clients summed over live shards. Quiescent-state read —
  // call only while the shards are stopped (pre-start / post-stop).
  int total_connected() const;

 private:
  vt::Platform& platform_;
  net::Transport& net_;
  const spatial::GameMap& map_;
  Config cfg_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<HandoffMailbox>> mailboxes_;
  std::unique_ptr<ShardSupervisor> supervisor_;
  obs::FleetObs* observer_ = nullptr;
  std::atomic<uint64_t> flow_ids_{0};
  std::atomic<uint64_t> overflow_sheds_{0};
  std::atomic<uint64_t> handoffs_returned_{0};
};

}  // namespace qserv::shard
