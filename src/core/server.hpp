// The game server engine: one class over one shared game state, as in
// the paper's frame loop (select -> world P -> receive/execute Rx/E ->
// reply T/Tx). Server owns the state and runs the frame as its own
// methods, one TU per phase: the world step in server.cpp, Rx in
// receive_phase.cpp, E in exec_phase.cpp, T/Tx in reply_phase.cpp and the
// master's between-frames window in maintenance_phase.cpp. The session
// layer is ClientRegistry (client_registry.hpp). The frame governor and
// the worker watchdog are members, stepped by the master window itself;
// so are the crash-recovery flight recorder, checkpoint ring and black
// box, written from recovery_duties.cpp at the frame's mutation points.
// The remaining satellites (the shard layer, test probes) attach through
// the hook seam in frame_hooks.hpp and call back into this class's public
// methods. The two concrete servers (sequential_server.hpp,
// parallel_server.hpp) differ only in their main loops — exactly the
// relationship between the original QuakeWorld server and the paper's
// pthreads port.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/client_registry.hpp"
#include "src/core/config.hpp"
#include "src/core/frame_hooks.hpp"
#include "src/core/frame_stats.hpp"
#include "src/core/global_state.hpp"
#include "src/net/transport.hpp"
#include "src/recovery/journal.hpp"
#include "src/resilience/governor.hpp"
#include "src/sim/world.hpp"

namespace qserv::obs {
class HistogramMetric;
class MetricsRegistry;
class Tracer;
}

namespace qserv::recovery {
class BlackBox;
}

namespace qserv::resilience {
class WorkerWatchdog;
}

namespace qserv::core {

struct FrameArena;
class InvariantChecker;
class LockManager;

class Server {
 public:
  Server(vt::Platform& platform, net::Transport& net,
         const spatial::GameMap& map, ServerConfig cfg);
  virtual ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Spawns the server thread(s) onto the platform. Call exactly once.
  virtual void start() = 0;

  // Signals the server loops to exit after the current frame.
  void request_stop();
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  // Worker fibers currently inside their loops. Reaches 0 only after a
  // requested stop has fully drained; a shard supervisor polls this for
  // quiescence before tearing a failed engine down.
  int active_workers() const {
    return active_workers_.load(std::memory_order_acquire);
  }

  // Registers an external satellite on the hook seam (a shard-layer
  // FrameHook, a test probe). Call before start(); the pointer must
  // outlive the server.
  void add_frame_hook(FrameHook* h) { hooks_.push_back(h); }

  // The server port a joining client with ordinal `i` of `expected`
  // should initially address (static block assignment, §3.1).
  uint16_t port_for_client(int ordinal, int expected_players) const;

  // --- statistics ---
  const std::vector<ThreadStats>& thread_stats() const { return stats_; }
  const FrameLockStats& frame_lock_stats() const { return frame_lock_stats_; }
  Breakdown total_breakdown() const;
  LockStats total_lock_stats() const;
  uint64_t frames() const { return frames_; }
  uint64_t total_replies() const;
  uint64_t total_requests() const;
  // Zeroes all measurement state (warmup boundary), including the per-run
  // session counters.
  void reset_stats();

  // Records (frame, moves) per thread for §5.2's dynamic-imbalance
  // analysis. Bounded to cfg.frame_trace_limit entries per thread; the
  // overflow shows up in frame_trace_dropped().
  void enable_frame_trace() { frame_trace_enabled_ = true; }
  // Entries discarded across threads once the per-thread cap was hit.
  uint64_t frame_trace_dropped() const;

  // Attaches the observability layer (obs/): a per-thread event tracer
  // (phase spans onto one track per worker) and/or a metrics registry
  // (frame-duration and requests-per-frame histograms here; lock-wait
  // histograms inside the lock manager). Either may be null. Call before
  // start(); pointers must outlive the server. When detached (the
  // default) the hot path pays one branch per would-be span.
  void attach_observability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics);
  // Fleet variant: this engine's worker tracks are registered under the
  // Chrome process `trace_pid` and named `<track_prefix><thread>`, so N
  // shard engines coexist in one merged trace export. Does NOT rebind the
  // tracer's clock (a fleet shares one tracer; under SimPlatform every
  // shard runs on the same virtual clock, under RealPlatform wall time).
  void attach_observability(obs::Tracer* tracer,
                            obs::MetricsRegistry* metrics, int trace_pid,
                            const std::string& track_prefix);
  obs::Tracer* tracer() const { return tracer_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // --- resilience subsystem (src/resilience/) ---
  // Frame-budget governor; always constructed (it also feeds the rolling
  // p95 that admission control reads) but only steps the ladder when
  // cfg.resilience.governor is on.
  const resilience::FrameGovernor& governor() const { return governor_; }
  // Graceful drain (hot restart): stop admitting new clients — every
  // connect gets kServerBusy ("retry later"), which is exactly right,
  // because in a moment a new generation will be serving on these ports.
  // Existing sessions keep playing until the handoff checkpoint.
  void enter_drain() { draining_.store(true, std::memory_order_relaxed); }
  // Reopens admission after an aborted restart (the next generation never
  // came up, so this one keeps serving).
  void leave_drain() { draining_.store(false, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  // Worker watchdog; null on the sequential server, inert (enabled() ==
  // false) when cfg.resilience.watchdog_timeout is zero.
  const resilience::WorkerWatchdog* watchdog() const { return watchdog_.get(); }
  // Thread-stall faults actually served by worker threads (chaos runs).
  uint64_t stalls_injected() const {
    return stalls_injected_.load(std::memory_order_relaxed);
  }
  // Backpressure totals summed over threads.
  uint64_t total_moves_rate_limited() const;
  uint64_t total_packets_oversized() const;
  uint64_t total_moves_coalesced() const;

  // Total cross-structure violations detected (0 when checking is off).
  uint64_t invariant_violations() const;

  // --- crash recovery (src/recovery/; null unless cfg.recovery.enabled) ---
  const recovery::FlightRecorder* recorder() const { return recorder_.get(); }
  const recovery::CheckpointManager* checkpoints() const {
    return checkpoints_.get();
  }
  const recovery::BlackBox* blackbox() const { return blackbox_.get(); }
  // What a tail-replaying restore actually did (supervisor / bench
  // reporting).
  struct RestoreStats {
    uint64_t checkpoint_frame = 0;
    uint64_t resume_frame = 0;   // frame counter after the journal tail
    uint64_t tail_frames = 0;    // journal frames re-executed
    uint64_t tail_moves = 0;
    uint64_t tail_lifecycle = 0;
    bool digest_verified = false;  // every tail frame matched its digest
  };
  // Warm restart: installs a decoded checkpoint — world, client registry
  // with netchan sequences, remembered evictions, frame/order counters —
  // into this freshly constructed server. Call after construction, before
  // start(). Restored clients either continue seamlessly on their old
  // ports (channel state survives) or re-adopt their slot by name when
  // they reconnect from a fresh port.
  //
  // With a journal image, the journal frames recorded after the
  // checkpoint are then re-executed through recovery::replay_tail —
  // digest-verified per frame — so the engine resumes at the failure
  // frame instead of silently dropping post-checkpoint history. Registry
  // deltas in the tail (spawns, disconnects, evictions, cross-shard
  // handoffs) are applied to the restored slots. A gap in the tail
  // returns kCorrupt before any state is touched; a digest mismatch
  // returns kReplayDiverged, after which this server must be discarded
  // (state is partially replayed).
  //
  // extra_out_seq_bump: additional out-sequence headroom on every
  // restored channel, on top of the tail-derived bump. A caller
  // restoring the SAME images repeatedly (crash loop: each short-lived
  // generation dies before its first checkpoint, so the stash never
  // advances) must pass a strictly growing value, or every generation
  // re-sends sequences a prior generation already burned and the peers
  // discard its packets — redirects included — as duplicates.
  recovery::LoadError restore_from(
      const std::vector<uint8_t>& image,
      const std::vector<uint8_t>& journal_image = {},
      RestoreStats* stats = nullptr, uint32_t extra_out_seq_bump = 0);

  // Hot-restart handoff capture: the current engine state as a
  // qserv-ckpt-v1 blob, off the periodic schedule. Requires
  // cfg.recovery.enabled and quiesced workers (call after request_stop()
  // has drained active_workers() to zero).
  std::vector<uint8_t> encode_checkpoint_now();

  // Writes a black-box dump (latest checkpoint, journal tail, trace,
  // meta) now; returns the dump directory or "" (disabled / I/O failure).
  std::string dump_blackbox(const std::string& label,
                            const std::string& why);

  // --- cross-shard session handoff (master window / pre-start only) ---
  // A player session packaged for adoption by a neighboring shard engine:
  // the session state (identity, liveness sequencing, netchan state — the
  // peer must see one continuous packet stream across the handoff) and the
  // closed HandoffState gameplay-field list.
  struct SessionTransfer : recovery::SessionState {
    // Causal-trace flow id stitching extract→adopt across shard tracks in
    // the merged export; 0 = untraced. In-memory only, never journaled.
    uint64_t flow_id = 0;
    // Containment metadata (in-memory only, like flow_id): where the
    // session was extracted from (-1 = unknown, e.g. a shed shard that
    // is already down), when it entered its current mailbox, and how
    // often a destination refused adoption — the shard layer's adopt
    // timeout and retry budget hang off these so a transfer targeted at
    // a dead shard is returned to its source instead of stranded.
    int source_shard = -1;
    int64_t posted_at_ns = 0;
    int adopt_retries = 0;
    recovery::HandoffState state;
  };
  // Packages the session on `port` and removes it from this engine:
  // captures the handoff state, journals kHandoffOut, removes the entity
  // and releases the slot. False when the port has no live settled slot.
  // Permanently detaches world cost charging on this server. Only for
  // never-started throwaway engines (the shard supervisor's shed path
  // restores one purely to extract sessions, from a timer context where
  // no virtual CPU can be charged).
  void detach_world_charging() { world_.exchange_platform(nullptr); }

  bool extract_session(uint16_t port, SessionTransfer& out);
  // Installs a transferred session on this engine: materializes the
  // player through recovery::adopt_player (the sequence journal replay
  // re-executes for kHandoffIn), binds the port and flags notify_port +
  // a forced full snapshot so the peer's next reply re-teaches it the new
  // server port. Journals kHandoffIn.
  // False when the registry is full or the port is already bound (no
  // world state is touched in that case — callers may retry elsewhere).
  bool adopt_session(const SessionTransfer& t);

  vt::Platform& platform() { return platform_; }
  const sim::World& world() const { return world_; }
  sim::World& world() { return world_; }
  const ServerConfig& config() const { return cfg_; }
  LockManager& lock_manager() { return *lock_manager_; }
  const LockManager& lock_manager() const { return *lock_manager_; }
  // The session layer (slot lifecycle, port map, per-run counters).
  ClientRegistry& registry() { return registry_; }
  const ClientRegistry& registry() const { return registry_; }
  int connected_clients() const { return registry_.connected(); }
  // The global state buffer and its sealed-event log.
  const GlobalStateBuffer& global_events() const { return global_events_; }

  // The next serialization index that would be drawn: every executed
  // move takes one, and with recovery on so does every other journaled
  // mutation (world step, spawn, disconnect, eviction, handoff).
  uint64_t order_count() const {
    return order_ctr_.load(std::memory_order_relaxed);
  }

 protected:
  // How long an idle worker blocks in select() before re-checking the
  // stop flag.
  static constexpr vt::Duration kSelectTimeout = vt::millis(50);

  // True when client_timeout is enabled and some connected client has
  // been silent past it — the cue for a maintenance frame when the
  // server is otherwise idle.
  bool reap_due() const { return registry_.reap_due(); }

  // True when the watchdog exists and sees a stale heartbeat — the cue
  // for a maintenance frame on an otherwise idle server (mirrors
  // reap_due()).
  bool watchdog_due(int self_tid) const;

  // Appends to `st.frame_trace` under the configured cap (§5.2 trace);
  // a no-op unless tracing is on and the governor sheds no debug work.
  void record_frame_trace(ThreadStats& st, uint64_t frame_id, int moves);

  // --- the frame, one method per phase (both drivers call these) ---
  // Opens the next frame; returns its id. Caller serializes (the
  // sequential loop, or the parallel master under the frame-sync mutex).
  uint64_t advance_frame() { return ++frames_; }

  // P (server.cpp): the master's world-physics step. Fixes (t0, dt) for
  // the frame, journals the world-tick record, runs the physics.
  void world_step(ThreadStats& st);

  // Rx (receive_phase.cpp): drains one thread's socket, framing datagrams
  // through the owning netchan, and dispatches connects / moves /
  // disconnects. Moves execute inline through execute_move (E,
  // exec_phase.cpp). Returns moves executed.
  int drain_requests(int tid, ThreadStats& st);

  // T/Tx (reply_phase.cpp). Single-threaded frame setup at the flip into
  // the reply phase (the world is frozen from here on): seals the frame's
  // global events into the event log (trimming it when due), queues the
  // clients resumed this frame, and refreshes the world's entity view.
  // The refresh is a reply phase on `st` (host time on RealPlatform); it
  // charges no virtual time.
  void prepare_replies(ThreadStats& st);
  // Answers the clients in `tid`'s reply queue, in slot order, and
  // charges the §3.3 buffer update of every other active client owned by
  // a thread in the bitmask `charged_owners` — the thread's own, plus, on
  // the parallel master, those of threads outside the frame.
  void send_replies(int tid, ThreadStats& st, uint64_t charged_owners);

  // Maintenance (maintenance_phase.cpp): the master's single-threaded
  // between-frames window, plus the entry points the idle paths use. All
  // client-lifecycle mutation outside the receive phase lives here.
  // The full frame-end window: complete deferred lifecycle, reap
  // timeouts, run the resilience duties (watchdog verdict, governor
  // step), dispatch the master-window hooks, seal the journal frame (and
  // checkpoint when due), audit invariants (unless shed), observe the
  // frame metrics, dispatch the frame-end hooks, and emit the frame span.
  void run_master_window(int tid, vt::TimePoint frame_start, int frame_moves,
                         ThreadStats& st);
  // Reaps every client silent past cfg.client_timeout. Returns evictions.
  int reap_timed_out_clients(ThreadStats& st);
  // Region re-partitioning of all clients (assign_policy == kRegion).
  int reassign_clients();
  // Runs the cross-structure audit when configured; a violating run
  // triggers a black-box dump.
  void run_invariant_check();

  vt::Platform& platform_;
  net::Transport& net_;
  ServerConfig cfg_;
  sim::World world_;
  GlobalStateBuffer global_events_;
  ClientRegistry registry_;
  std::unique_ptr<LockManager> lock_manager_;

  std::vector<std::unique_ptr<net::Socket>> sockets_;      // one per thread
  std::vector<std::unique_ptr<net::Selector>> selectors_;  // one per thread

  std::vector<ThreadStats> stats_;  // one per thread
  FrameLockStats frame_lock_stats_;

  std::atomic<bool> stop_{false};
  std::atomic<int> active_workers_{0};
  bool frame_trace_enabled_ = false;
  obs::Tracer* tracer_ = nullptr;            // non-owning, may be null
  obs::MetricsRegistry* metrics_ = nullptr;  // non-owning, may be null
  // Whole-frame histograms in metrics_ (null when detached).
  obs::HistogramMetric* frame_duration_ms_ = nullptr;
  obs::HistogramMetric* moves_per_frame_ = nullptr;
  std::atomic<uint64_t> stalls_injected_{0};
  vt::TimePoint next_reassign_{};

  // --- resilience (src/resilience/) ---
  // Always present: even with the ladder off the governor maintains the
  // rolling p95 that connect-time admission control reads.
  resilience::FrameGovernor governor_;
  // Created by ParallelServer when cfg.resilience.watchdog_timeout > 0;
  // null otherwise.
  std::unique_ptr<resilience::WorkerWatchdog> watchdog_;
  // Earliest time the governor's eviction rung may evict again.
  vt::TimePoint next_expensive_evict_{};
  std::atomic<bool> draining_{false};  // enter_drain / leave_drain

  // --- crash recovery (src/recovery/) ---
  // All null unless cfg.recovery.enabled. Every journaled mutation but a
  // move draws its serialization index only when the recorder exists, so
  // a non-recovery run's index stream counts exactly its moves.
  std::unique_ptr<recovery::FlightRecorder> recorder_;
  std::unique_ptr<recovery::CheckpointManager> checkpoints_;
  std::unique_ptr<recovery::BlackBox> blackbox_;
  std::string map_text_;  // GameMap::serialize(), embedded in checkpoints

  std::unique_ptr<InvariantChecker> invariants_;  // null unless enabled
  // The seam for the shard layer and test probes, in registration order.
  std::vector<FrameHook*> hooks_;

  // --- frame progression ---
  uint64_t frames_ = 0;
  // The open frame's event count (written single-threaded at the reply
  // flip, read-only during the phase).
  size_t frame_events_ = 0;
  // Master-window scratch for the pending-lifecycle slot list.
  std::vector<int> pending_lifecycle_;
  std::atomic<uint64_t> order_ctr_{0};
  vt::TimePoint last_world_{};  // previous world-step time (for dt)
  vt::Duration last_world_dt_{};  // the open frame's dt (journal sealing)
  // Per-thread hot-path scratch (frame_arena.hpp), built last in the
  // constructor. unique_ptr: FrameArena holds a Region, which is
  // intentionally pinned (non-copyable, non-movable) because release()
  // must find it.
  std::vector<std::unique_ptr<FrameArena>> arenas_;

 private:
  void handle_connect(int tid, const net::Datagram& d,
                      const net::ConnectMsg& msg, ThreadStats& st);
  void handle_disconnect(ClientSlot& client);
  // E: one move command against the world, under the region locks its
  // bounding boxes require (lock-free when the lock policy is kNone, as
  // on the sequential server).
  void execute_move(int tid, ClientSlot& client, const net::MoveCmd& cmd,
                    ThreadStats& st);
  // Spawns entities for pending connects (sending the deferred ack) and
  // removes entities of pending disconnects.
  void complete_pending_lifecycle();
  void evict_client_locked(ClientSlot& c, net::RejectReason reason,
                           ThreadStats& st);
  // Thread that should own a player at `origin` under region assignment.
  int owner_for_region(const Vec3& origin) const;
  // The master window's resilience duties: the watchdog verdict (stall
  // migration, black-box dump), then the governor step and its paced
  // eviction rung.
  void run_resilience_duties(int tid, vt::TimePoint frame_start,
                             ThreadStats& st);
  // Migrates every client owned by `stalled_tid` to live workers; returns
  // clients migrated.
  int migrate_clients_from(int stalled_tid);
  // Governor rung 4: evicts the most expensive client since the last
  // scan; resets every scan counter. Returns 0 or 1.
  int evict_most_expensive(ThreadStats& st);

  // --- the flight recorder (recovery_duties.cpp) ---
  // Serialization-index counter: moves draw theirs after acquiring their
  // region locks, so conflicting moves' indexes order exactly as their
  // executions did; replay applies records in this order.
  uint64_t draw_order() {
    return order_ctr_.fetch_add(1, std::memory_order_relaxed);
  }
  // Each journal_* call is a no-op with recovery off; otherwise it draws
  // the record's serialization index (a move brings its own) and stages
  // the record on `thread`'s vector.
  void journal_world_step(int tid, vt::TimePoint t0, vt::Duration dt);
  void journal_move(int tid, uint16_t port, uint32_t entity, uint64_t order,
                    vt::TimePoint t0, const net::MoveCmd& cmd);
  // kConnectSpawn / kDisconnect / kEvict / kHandoffOut / kHandoffIn;
  // `name` rides spawns and handoffs, `hand` only kHandoffIn.
  void journal_lifecycle(recovery::RecordKind kind, int thread,
                         uint16_t port, uint32_t entity, int64_t t_ns,
                         const std::string& name = {},
                         const recovery::HandoffState* hand = nullptr);
  // Master window, after every mutation of the frame: digest the world,
  // seal the journal frame, and take the periodic checkpoint when due.
  void seal_journal_frame();
  // The engine's current state as a checkpoint (registry mutex taken).
  recovery::CheckpointData make_checkpoint(uint64_t digest);
};

}  // namespace qserv::core
