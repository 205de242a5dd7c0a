#include "src/core/lock_manager.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/sim/combat.hpp"
#include "src/sim/move.hpp"
#include "src/util/check.hpp"

namespace qserv::core {

LockManager::LockManager(vt::Platform& platform,
                         const spatial::AreanodeTree& tree,
                         const sim::CostModel& costs)
    : platform_(platform), tree_(tree), costs_(costs) {
  region_mu_.reserve(static_cast<size_t>(tree.leaf_count()));
  for (int i = 0; i < tree.leaf_count(); ++i)
    region_mu_.push_back(platform.make_mutex("region-leaf-" + std::to_string(i)));
  list_mu_.reserve(static_cast<size_t>(tree.node_count()));
  for (int i = 0; i < tree.node_count(); ++i)
    list_mu_.push_back(platform.make_mutex("list-node-" + std::to_string(i)));
  frame_thread_mask_.assign(static_cast<size_t>(tree.leaf_count()), 0);
  frame_lock_ops_.assign(static_cast<size_t>(tree.leaf_count()), 0);
}

void LockManager::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    leaf_wait_us_ = nullptr;
    list_wait_us_ = nullptr;
    return;
  }
  // Microsecond-scale buckets: waits range from sub-microsecond lock ops
  // to multi-millisecond pile-ups near saturation.
  leaf_wait_us_ = &registry->histogram("lock.leaf_wait_us", 1e-2);
  list_wait_us_ = &registry->histogram("lock.list_wait_us", 1e-2);
}

LockManager::Region::~Region() {
  QSERV_CHECK_MSG(mgr_ == nullptr, "Region destroyed while locks held");
}

void LockManager::plan_request(LockPolicy policy, const sim::Entity& player,
                               const net::MoveCmd& cmd,
                               std::vector<std::vector<int>>& sets_out) const {
  // Reuse the caller's inner vectors (the exec phase passes a per-thread
  // scratch): claim the next slot, clear it, refill, and shrink the outer
  // vector to the sets actually planned at the end.
  size_t used = 0;
  auto next_set = [&]() -> std::vector<int>& {
    if (used == sets_out.size()) sets_out.emplace_back();
    std::vector<int>& s = sets_out[used++];
    s.clear();
    return s;
  };
  if (policy != LockPolicy::kNone) {
    // Short-range: the move's bounding box, "slightly larger than
    // necessary" (§4.3).
    tree_.leaves_for(sim::move_bounds(player, cmd), next_set());

    // Long-range: only when the command initiates one.
    const bool attacks = (cmd.buttons & net::kButtonAttack) != 0;
    const bool throws = (cmd.buttons & net::kButtonThrow) != 0;
    if (attacks || throws) {
      std::vector<int>& leaves = next_set();
      if (policy == LockPolicy::kConservative) {
        // Highly conservative: the entire map.
        for (int i = 0; i < tree_.node_count(); ++i)
          if (tree_.is_leaf(i)) leaves.push_back(i);
      } else if (attacks) {
        // Type-2 object (fully simulated now): directional bounding box
        // from the player to the world edge along the aim direction.
        const Vec3 dir = sim::aim_dir(player, cmd.pitch_deg);
        tree_.leaves_for(
            directional_bounds(sim::load_bounds(player), dir,
                               tree_.world_bounds(), sim::kDirectionalLockPad),
            leaves);
      } else {
        // Type-1 object (completed during world physics): expanded
        // bounding box covering the maximum request-time interaction
        // range.
        tree_.leaves_for(
            sim::load_bounds(player).expanded(sim::kGrenadeRequestRange +
                                              sim::kDirectionalLockPad),
            leaves);
      }
    }
  }
  sets_out.resize(used);
}

void LockManager::acquire(const std::vector<std::vector<int>>& sets,
                          int thread_id, ThreadStats& stats, Region& out) {
  QSERV_CHECK_MSG(!out.held(), "Region already held");
  QSERV_CHECK(thread_id >= 0 && thread_id < 64);
  if (sets.empty()) return;

  // Union of all sets in canonical order; overlaps are re-locks. Both
  // region buffers are reused across acquisitions when the caller reuses
  // the Region object (the exec phase's per-thread arena does).
  std::vector<int>& requested = out.scratch_;
  requested.clear();
  for (const auto& s : sets) requested.insert(requested.end(), s.begin(), s.end());
  const uint64_t requests = requested.size();
  std::vector<int>& leaves = out.leaves_;
  leaves = requested;
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  if (leaves.empty()) return;

  stats.locks.requests_locked += 1;
  stats.locks.lock_requests += requests;
  stats.locks.distinct_leaves += leaves.size();
  stats.locks.relocks += requests - leaves.size();

  // Everything from here — the region-determination/bookkeeping overhead
  // (§4.1: what the 1-thread parallel server pays over the sequential
  // one) plus actual waiting — is the paper's "lock" component.
  PhaseScope scope(platform_, stats, Phase::kLockLeaf, -1, leaf_wait_us_);
  platform_.compute(costs_.lock_op * static_cast<int64_t>(requests));
  for (const int node : leaves) {
    const int ord = leaf_ordinal(node);
    region_mu_[static_cast<size_t>(ord)]->lock();
    // Stats below are written under this leaf's region mutex. Lock ops
    // count every request for the leaf, including re-locks.
    frame_thread_mask_[static_cast<size_t>(ord)] |= 1ull << thread_id;
    frame_lock_ops_[static_cast<size_t>(ord)] += static_cast<uint32_t>(
        std::count(requested.begin(), requested.end(), node));
  }
  out.mgr_ = this;
}

void LockManager::release(Region& region) {
  if (!region.held()) return;
  for (auto it = region.leaves_.rbegin(); it != region.leaves_.rend(); ++it)
    region_mu_[static_cast<size_t>(leaf_ordinal(*it))]->unlock();
  region.leaves_.clear();
  region.mgr_ = nullptr;
}

void LockManager::ListLockContext::lock_list(int node_index) {
  auto& mgr = *mgr_;
  // Both the lock-op overhead and any waiting count as lock time.
  PhaseScope scope(mgr.platform_, *stats_,
                   mgr.tree_.is_leaf(node_index) ? Phase::kLockLeaf
                                                 : Phase::kLockParent,
                   -1, mgr.list_wait_us_);
  mgr.platform_.compute(mgr.costs_.list_lock_op);
  mgr.list_mu_[static_cast<size_t>(node_index)]->lock();
  ++stats_->locks.parent_list_locks;
}

void LockManager::ListLockContext::unlock_list(int node_index) {
  mgr_->list_mu_[static_cast<size_t>(node_index)]->unlock();
}

void LockManager::frame_reset() {
  std::fill(frame_thread_mask_.begin(), frame_thread_mask_.end(), 0);
  std::fill(frame_lock_ops_.begin(), frame_lock_ops_.end(), 0);
}

void LockManager::frame_harvest(FrameLockStats& out) {
  int locked = 0, shared = 0;
  uint64_t ops = 0;
  for (size_t i = 0; i < frame_thread_mask_.size(); ++i) {
    const uint64_t mask = frame_thread_mask_[i];
    if (mask != 0) ++locked;
    if ((mask & (mask - 1)) != 0) ++shared;  // >= 2 bits set
    ops += frame_lock_ops_[i];
  }
  const double n = static_cast<double>(tree_.leaf_count());
  out.leaves_locked_pct.add(static_cast<double>(locked) / n);
  out.leaves_shared_pct.add(static_cast<double>(shared) / n);
  out.lock_ops_per_leaf.add(static_cast<double>(ops) / n);
  ++out.frames;
}

}  // namespace qserv::core
