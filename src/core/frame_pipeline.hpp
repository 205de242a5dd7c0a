// The layered frame engine: explicit phase objects over shared engine
// state, composed by both concrete servers. SequentialServer runs
// World -> Receive -> Reply -> Maintenance on one thread with locks off;
// ParallelServer runs the same phases under its master-election barrier
// protocol with locks on. The phases own no state of their own — they
// operate on the PipelineContext (references into the Server that built
// them) plus per-thread FrameArenas for hot-path scratch, so composing
// them differently cannot fork the engine's behavior.
//
// Layering (DESIGN.md §10): transport (net/) feeds the receive phase;
// sessions (ClientRegistry) are mutated only here and in the maintenance
// window; subsystems observe through HookList and reach back through the
// Engine facade (frame_hooks.hpp). Nothing in this header depends on
// recovery/, resilience/ internals or obs/ beyond those seams and the
// governor's read-only rung level.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/client_registry.hpp"
#include "src/core/config.hpp"
#include "src/core/frame_hooks.hpp"
#include "src/core/frame_stats.hpp"
#include "src/core/global_state.hpp"
#include "src/core/lock_manager.hpp"
#include "src/net/netchan.hpp"
#include "src/sim/scratch.hpp"
#include "src/sim/snapshot.hpp"

namespace qserv::resilience {
class FrameGovernor;
class WorkerWatchdog;
}

namespace qserv::core {

class FramePipeline;
class InvariantChecker;

// Everything the phases operate on, wired once by the Server that owns
// all of it. References: the pipeline never outlives the server.
struct PipelineContext {
  vt::Platform& platform;
  const ServerConfig& cfg;
  sim::World& world;
  GlobalStateBuffer& global_events;
  LockManager& lock_manager;
  ClientRegistry& registry;
  std::vector<std::unique_ptr<net::Socket>>& sockets;
  std::vector<ThreadStats>& stats;
  FrameLockStats& frame_lock_stats;
  HookList& hooks;
  // Read-only rung level for the hot-path shed gates (coalesce, thin-far,
  // shed-debug-work). Stepping the ladder happens in the resilience
  // hook's master window, not here.
  const resilience::FrameGovernor* governor;
  // Stall oracle for migration targeting; null on the sequential server
  // (armed by ParallelServer after construction).
  resilience::WorkerWatchdog* watchdog;
  InvariantChecker* invariants;  // null unless cfg.check_invariants
  Engine* engine;                // facade for hook-owned escalations
};

// Per-thread frame scratch: every container the exec and reply phases
// would otherwise allocate per move / per frame. Arenas are only ever
// touched by their owning thread, so no synchronization; capacity grows
// to the high-water mark and stays.
struct FrameArena {
  // Exec phase: plan_request() output and the acquired region (the
  // region's own leaf/request buffers are reused through it), plus the
  // gather scratch threaded through execute_move.
  std::vector<std::vector<int>> lock_sets;
  LockManager::Region region;
  sim::MoveScratch move_scratch;
  // Reply phase: per-client event assembly, the snapshot being built,
  // the visible view rows the sweep hands the encoder, the encoder's
  // scratch, and the wire buffer each reply is encoded into (with
  // NetChannel::kHeaderReserve headroom) and sent from in place.
  std::vector<net::GameEvent> events;
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  sim::EncodeScratch enc_scratch;
  net::ByteWriter wire;
};

// P: the master's world-physics step. Fixes (t0, dt) for the frame,
// notifies hooks (the journal's world-tick record), runs the physics.
class WorldPhase {
 public:
  explicit WorldPhase(FramePipeline& pipe) : pipe_(pipe) {}
  void run(ThreadStats& st);

 private:
  FramePipeline& pipe_;
};

// Rx (+ dispatch): drains one thread's socket, framing datagrams through
// the owning netchan, and dispatches connects / moves / disconnects.
// Moves execute inline through the exec phase.
class ReceivePhase {
 public:
  explicit ReceivePhase(FramePipeline& pipe) : pipe_(pipe) {}
  // Returns moves executed. `use_locks` off = sequential server.
  int drain(int tid, ThreadStats& st, bool use_locks);

 private:
  void handle_connect(int tid, const net::Datagram& d,
                      const net::ConnectMsg& msg, ThreadStats& st);
  void handle_disconnect(ClientSlot& client, ThreadStats& st);

  FramePipeline& pipe_;
};

// E: one move command against the world, under the region locks its
// bounding boxes require (parallel) or lock-free (sequential).
class ExecPhase {
 public:
  explicit ExecPhase(FramePipeline& pipe) : pipe_(pipe) {}
  void run(int tid, ClientSlot& client, const net::MoveCmd& cmd,
           ThreadStats& st, bool use_locks);

 private:
  FramePipeline& pipe_;
};

// T/Tx: snapshots for the clients in this thread's reply queue.
class ReplyPhase {
 public:
  explicit ReplyPhase(FramePipeline& pipe) : pipe_(pipe) {}

  // Single-threaded frame setup at the flip into the reply phase (the
  // world is frozen from here on): seals the frame's global events into
  // the event log (trimming it when due), queues the clients resumed this
  // frame, and refreshes the world's entity view. The refresh is a reply
  // phase on `st` (host time on RealPlatform); it charges no virtual time.
  void prepare(ThreadStats& st);

  // Answers the clients in `tid`'s reply queue, in slot order, and
  // charges the §3.3 buffer update of every other active client owned by
  // a thread in the bitmask `charged_owners` — the thread's own, plus, on
  // the parallel master, those of threads outside the frame.
  void run(int tid, ThreadStats& st, uint64_t charged_owners);

 private:
  FramePipeline& pipe_;
};

// The master's single-threaded between-frames window, plus the
// maintenance entry points the idle paths use. All client-lifecycle
// mutation outside the receive phase lives here.
class MaintenancePhase {
 public:
  explicit MaintenancePhase(FramePipeline& pipe) : pipe_(pipe) {}

  // The full frame-end window: harvest per-frame lock stats (parallel
  // only), complete deferred lifecycle, reap timeouts, dispatch the
  // master-window / frame-sealed / frame-end hooks, audit invariants
  // (unless shed), and emit the frame span.
  void run_master_window(int tid, vt::TimePoint frame_start, int frame_moves,
                         ThreadStats& st, bool harvest_locks);

  // Reaps every client silent past cfg.client_timeout. Returns evictions.
  int reap_timed_out_clients(ThreadStats& st);
  // Governor rung 4: evicts the most expensive client since the last
  // scan; resets every scan counter. Returns 0 or 1.
  int evict_most_expensive(ThreadStats& st);
  // Region re-partitioning of all clients (assign_policy == kRegion).
  int reassign_clients();
  // Migrates every client owned by `stalled_tid` to live workers.
  int reassign_clients_from(int stalled_tid, ThreadStats& st);
  // Thread that should own a player at `origin` under region assignment.
  int owner_for_region(const Vec3& origin) const;
  // Runs the cross-structure audit when configured; a violating run
  // triggers a black-box dump through the engine facade.
  void run_invariant_check();
  // Spawns entities for pending connects (sending the deferred ack) and
  // removes entities of pending disconnects.
  void complete_pending_lifecycle(ThreadStats& st);

 private:
  void evict_client_locked(ClientSlot& c, net::RejectReason reason,
                           ThreadStats& st);

  FramePipeline& pipe_;
};

// Owns frame progression (frame counter, serialization-index counter,
// world-phase timing), the per-thread arenas, and the phase objects.
class FramePipeline {
 public:
  explicit FramePipeline(const PipelineContext& ctx);

  FramePipeline(const FramePipeline&) = delete;
  FramePipeline& operator=(const FramePipeline&) = delete;

  PipelineContext& context() { return ctx_; }

  uint64_t frames() const { return frames_; }
  // Opens the next frame; returns its id. Caller serializes (the
  // sequential loop, or the parallel master under the frame-sync mutex).
  uint64_t advance_frame() { return ++frames_; }

  // Serialization-index counter: every world mutation takes one; replay
  // applies records in this order. Moves draw theirs after acquiring
  // their region locks, so conflicting moves' indexes order exactly as
  // their executions did.
  uint64_t draw_order() { return order_ctr_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t order_count() const {
    return order_ctr_.load(std::memory_order_relaxed);
  }

  // world_phase() arguments of the open frame (journal sealing).
  vt::TimePoint last_world_t0() const { return last_world_t0_; }
  vt::Duration last_world_dt() const { return last_world_dt_; }

  // Checkpoint restore: resumes frame/order counters and restarts the
  // world-phase dt clock at now.
  void restore(uint64_t frame, uint64_t next_order);

  FrameArena& arena(int tid) { return *arenas_[static_cast<size_t>(tid)]; }

  WorldPhase& world_phase() { return world_phase_; }
  ReceivePhase& receive() { return receive_; }
  ExecPhase& exec() { return exec_; }
  ReplyPhase& reply() { return reply_; }
  MaintenancePhase& maintenance() { return maintenance_; }

 private:
  friend class WorldPhase;
  friend class ReceivePhase;
  friend class ExecPhase;
  friend class ReplyPhase;
  friend class MaintenancePhase;

  PipelineContext ctx_;
  uint64_t frames_ = 0;
  // The open frame's event count (written single-threaded at the reply
  // flip, read-only during the phase).
  size_t frame_events_ = 0;
  // Master-window scratch for the pending-lifecycle slot list.
  std::vector<int> pending_lifecycle_;
  std::atomic<uint64_t> order_ctr_{0};
  vt::TimePoint last_world_{};  // previous world-phase time (for dt)
  vt::TimePoint last_world_t0_{};
  vt::Duration last_world_dt_{};
  // unique_ptr: FrameArena holds a Region, which is intentionally
  // pinned (non-copyable, non-movable) because release() must find it.
  std::vector<std::unique_ptr<FrameArena>> arenas_;

  WorldPhase world_phase_{*this};
  ReceivePhase receive_{*this};
  ExecPhase exec_{*this};
  ReplyPhase reply_{*this};
  MaintenancePhase maintenance_{*this};
};

}  // namespace qserv::core
