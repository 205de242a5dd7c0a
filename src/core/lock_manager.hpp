// Region-based lock synchronization over the areanode tree (§3.3, §4.3).
//
// Two lock families:
//
//  * Region (leaf) locks — one mutex per areanode leaf. A request locks
//    every leaf its bounding box(es) intersect, in canonical (ascending
//    index) order so acquisition is deadlock-free, and holds them for the
//    entire move execution.
//  * List (parent) locks — one mutex per tree node, held only while a
//    node's object list is read or written. In the paper these appear as
//    "parent areanode" locks for entities that straddle division planes;
//    we also use them for the brief link/unlink list updates, which makes
//    relocation into unlocked regions (teleporters, respawns) safe.
//
// The manager additionally keeps the per-frame statistics Figure 7 plots:
// which leaves each thread locked, relock counts, and sharing between
// threads.
#pragma once

#include <memory>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/frame_stats.hpp"
#include "src/net/protocol.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/world.hpp"
#include "src/spatial/areanode_tree.hpp"

namespace qserv::obs {
class HistogramMetric;
class MetricsRegistry;
}

namespace qserv::core {

class LockManager {
 public:
  LockManager(vt::Platform& platform, const spatial::AreanodeTree& tree,
              const sim::CostModel& costs);

  // An acquired set of leaf region locks. Release before destruction.
  class Region {
   public:
    Region() = default;
    ~Region();
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;

    const std::vector<int>& leaves() const { return leaves_; }
    bool held() const { return mgr_ != nullptr; }

   private:
    friend class LockManager;
    LockManager* mgr_ = nullptr;
    std::vector<int> leaves_;  // sorted node indices
  };

  // Computes the leaves a request must lock under `policy` into
  // `requests_out` (replacing its contents): the short-range move region,
  // then the long-range region its buttons require. Each region's leaves
  // count as lock requests (a leaf in both is one of the paper's
  // re-locks).
  void plan_request(LockPolicy policy, const sim::Entity& player,
                    const net::MoveCmd& cmd,
                    std::vector<int>& requests_out) const;

  // Acquires the distinct leaves of `requests` in canonical order.
  // Charges lock-op costs, attributes them and the wait to the lock-leaf
  // phase, and records the per-request lock statistics. `thread_id` must
  // be < 64.
  void acquire(const std::vector<int>& requests, int thread_id,
               ThreadStats& stats, Region& out);
  void release(Region& region);

  // Per-thread facade giving sim/ code list-lock access. Each lock_list
  // is a lock-leaf or lock-parent phase (by the node) on that thread's
  // stats, nested in and subtracted from the enclosing exec phase.
  class ListLockContext final : public sim::NodeListLocks {
   public:
    ListLockContext(LockManager& mgr, ThreadStats& stats)
        : mgr_(&mgr), stats_(&stats) {}
    void lock_list(int node_index) override;
    void unlock_list(int node_index) override;

   private:
    LockManager* mgr_;
    ThreadStats* stats_;
  };

  // --- frame accounting (master only, between frames) ---
  void frame_reset();
  void frame_harvest(FrameLockStats& out);

  // --- observability (obs/metrics.hpp) ---
  // Attaches wait-time histograms ("lock.leaf_wait_us", per-acquire region
  // wait; "lock.list_wait_us", per list-lock wait). Null detaches; the hot
  // path then pays one branch.
  void set_metrics(obs::MetricsRegistry* registry);

  int leaf_count() const { return tree_.leaf_count(); }
  const spatial::AreanodeTree& tree() const { return tree_; }

 private:
  int leaf_ordinal(int node_index) const { return tree_.leaf_ordinal(node_index); }

  vt::Platform& platform_;
  const spatial::AreanodeTree& tree_;
  sim::CostModel costs_;

  std::vector<std::unique_ptr<vt::Mutex>> region_mu_;  // by leaf ordinal
  std::vector<std::unique_ptr<vt::Mutex>> list_mu_;    // by node index

  // Per-leaf, per-frame sharing stats; bit i set = thread i locked the
  // leaf this frame. Each entry is only written while its region mutex is
  // held, and reset/harvested by the master between frames.
  std::vector<uint64_t> frame_thread_mask_;
  std::vector<uint32_t> frame_lock_ops_;

  // Observability attachments; null = off (one branch on the hot path).
  obs::HistogramMetric* leaf_wait_us_ = nullptr;
  obs::HistogramMetric* list_wait_us_ = nullptr;
};

}  // namespace qserv::core
