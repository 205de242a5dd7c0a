// The session layer: client slot lifecycle, the port -> slot map, netchan
// ownership, the per-thread reply queues, evicted-port memory, and the
// per-run session counters. Extracted from the Server monolith so slot
// reuse, resume and migration are unit-testable without a frame loop, and
// so the engine's phases touch sessions through one narrow surface.
//
// Locking contract: the registry owns the clients mutex (the old
// clients_mu_). Methods suffixed _locked require it held by the caller;
// by_port()/consume_remembered_eviction()/flush_deferred_replies() take
// it internally; connected() and netchan-style scans read without it
// (racy-by-design post-run inspection, exactly as before the
// extraction). The reply queues are touched only by their owner thread
// and by single-threaded windows, so they need no lock.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/config.hpp"
#include "src/net/netchan.hpp"
#include "src/net/protocol.hpp"
#include "src/resilience/token_bucket.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::recovery {
struct SessionState;
}

namespace qserv::core {

// One client session. Field semantics are unchanged from the Server-era
// Client struct; see the comments for the deferred-lifecycle flags.
struct ClientSlot {
  bool in_use = false;
  uint32_t entity_id = 0;
  uint16_t remote_port = 0;
  std::string name;
  int owner_thread = 0;
  bool notify_port = false;  // next snapshot carries assigned_port
  // Connect accepted, entity not yet spawned: creation is deferred to
  // the master's between-frames window so entity lifecycle never races
  // request processing (and replays in serialization order). Until the
  // spawn, the slot has no entity or channel.
  bool pending_spawn = false;
  int connect_tid = 0;  // receiving thread (block-assignment owner)
  // Disconnect seen mid-drain; entity removal is deferred to the same
  // window for the same reason.
  bool pending_disconnect = false;
  // Restored from a checkpoint and not yet heard from on a live socket;
  // a connect from a fresh port may re-adopt this slot by name.
  bool awaiting_resume = false;
  uint32_t last_seq = 0;          // latest move sequence processed
  int64_t last_move_time_ns = 0;  // echoed back in the reply
  // When the server last heard anything from this client (liveness
  // clock for client_timeout reaping). Written by the thread draining
  // the client's datagrams while an idle thread may concurrently poll
  // reap_due(), so all access goes through std::atomic_ref.
  int64_t last_heard_ns = 0;
  bool pending_reply = false;  // sent a request this frame
  // Owner thread whose reply queue holds this slot, -1 if none (see
  // ClientRegistry::queue_reply).
  int reply_queue = -1;
  // The frame this client's events are complete through: its next reply
  // carries the logged events of every later frame (GlobalStateBuffer).
  uint64_t events_through = 0;
  std::unique_ptr<net::NetChannel> chan;
  // Delta-snapshot support (owner thread only): recently sent snapshot
  // entity lists keyed by server frame, and the newest frame the client
  // reports having reconstructed.
  struct SentSnapshot {
    uint32_t server_frame = 0;
    std::vector<net::EntityUpdate> entities;
  };
  std::deque<SentSnapshot> history;
  uint32_t client_baseline_frame = 0;
  // Per-client move-rate limiter (configured at connect from
  // cfg.resilience). Atomic inside: during a stall migration two
  // threads can briefly drain the same client.
  resilience::TokenBucket bucket;
  // Moves executed since the governor's last expensive-client scan
  // (owner thread writes, master window reads/clears — ordered by the
  // frame-sync mutex).
  uint32_t moves_since_scan = 0;
};

class ClientRegistry {
 public:
  ClientRegistry(vt::Platform& platform, const ServerConfig& cfg);

  ClientRegistry(const ClientRegistry&) = delete;
  ClientRegistry& operator=(const ClientRegistry&) = delete;

  vt::Mutex& mutex() const { return *mu_; }

  std::vector<ClientSlot>& slots() { return slots_; }
  const std::vector<ClientSlot>& slots() const { return slots_; }
  ClientSlot& slot(int i) { return slots_[static_cast<size_t>(i)]; }

  // Locks internally. The returned pointer stays valid after unlock: the
  // slot vector never grows, and slots are never destroyed, only reused.
  ClientSlot* by_port(uint16_t port);
  // Caller holds mutex(). -1 when the port has no slot.
  int index_of_port_locked(uint16_t port) const;
  const std::unordered_map<uint16_t, int>& port_map() const {
    return slot_by_port_;
  }
  // Lock-free scan (post-run inspection / blackbox metadata).
  int connected() const;

  // --- slot lifecycle (caller holds mutex()) ---
  int find_free_locked() const;  // -1 when full
  void bind_port_locked(uint16_t port, int slot_index) {
    slot_by_port_[port] = slot_index;
  }
  void unbind_port_locked(uint16_t port) { slot_by_port_.erase(port); }
  // Fresh connect accepted: binds the port, stamps identity, starts a
  // fresh session, and lists the slot for the master window's spawn.
  void init_pending_slot_locked(int slot_index, uint16_t port, int tid,
                                const std::string& name);
  // The deferred spawn: entity, owner, channel; events after `frame`.
  void spawn_slot_locked(ClientSlot& c, uint32_t entity_id, int owner,
                         net::Socket& owner_socket, uint64_t frame);
  // Copies the session state a session keeps across engines (port, name,
  // move and channel sequencing) out of `c` (checkpoint capture, shard
  // handoff).
  static void capture_session(const ClientSlot& c,
                              recovery::SessionState& out);
  // Installs a captured session in a free slot (checkpoint restore, shard
  // handoff): port, name and move sequencing from `s`, a channel resuming
  // s's sequences with the out-sequence advanced by `out_seq_bump`, a
  // fresh liveness session, events after `frame`. The caller sets the
  // flags that differ.
  ClientSlot& install_session_locked(int slot_index,
                                     const recovery::SessionState& s,
                                     uint32_t entity_id, int owner,
                                     net::Socket& owner_socket,
                                     uint64_t frame,
                                     uint32_t out_seq_bump = 0);
  // Re-adopts a checkpointed slot on a live connect, from any thread:
  // fresh channel and session, events after `frame`, and a reply queued
  // at the next flip. Caller has set remote_port / the port map.
  void resume_slot_locked(ClientSlot& c, net::Socket& owner_socket,
                          uint64_t frame);
  // A disconnect seen mid-drain: flags the slot and lists it for the
  // master window's entity removal (once, however many arrive).
  void mark_disconnect_locked(ClientSlot& c);
  // Frees one slot (registry bookkeeping only — the reject send,
  // journaling and world-entity removal are the caller's).
  void release_slot_locked(ClientSlot& c);
  // Ownership handoff to `new_owner`: rebinds the channel (sequencing
  // state survives — the peer must see one continuous stream), flags
  // notify_port so the next snapshot re-teaches the port, and queues it.
  void migrate_slot_locked(ClientSlot& c, int new_owner,
                           net::Socket& owner_socket);

  // Moves the slots listed by init_pending_slot_locked and
  // mark_disconnect_locked into `out`, in slot order (master window).
  void take_pending_lifecycle_locked(std::vector<int>& out);

  // --- reply queues (DESIGN.md §15) ---
  // Queues `c` on its owner thread; every site that sets pending_reply or
  // notify_port calls it. Callers are the owner thread or single-threaded
  // windows; resume, which runs on any thread, defers to the flip.
  void queue_reply(ClientSlot& c);
  // Slot indices; entries whose reply_queue no longer names the thread
  // are stale (migrated, released, duplicate).
  std::vector<int>& reply_queue(int tid) {
    return reply_queues_[static_cast<size_t>(tid)];
  }
  // At the flip into the reply phase: queues the slots resumed this frame.
  void flush_deferred_replies();
  // Spawned, not disconnecting clients of the threads in bitmask
  // `owners`: all of them, or those in slots below `slot`. Read from the
  // per-owner slot lists (no walk).
  int active_clients(uint64_t owners) const;
  int active_below(uint64_t owners, int slot) const;
  // Oldest frame a spawned client's events are complete through (`frame`
  // if none). A walk, for the event log's amortised trim only.
  uint64_t events_complete_through(uint64_t frame) const;

  // True when client_timeout is enabled and some connected client has
  // been silent past it — the cue for a maintenance frame when the
  // server is otherwise idle.
  bool reap_due() const;

  // --- evicted-port memory (inert unless recovery is enabled) ---
  // Remembers an evicted client's port so its straggler moves (or a
  // warm-restarted server it doesn't know crashed) answer kEvicted once
  // instead of silence. FIFO-bounded to kRememberedEvictions ports.
  // Caller holds mutex().
  static constexpr size_t kRememberedEvictions = 1024;
  void remember_evicted_locked(uint16_t port);
  // Consumes one remembered entry (locks internally); each port is
  // answered a single kEvicted, so a straggler streaming moves cannot
  // turn the memory into a reject storm.
  bool consume_remembered_eviction(uint16_t port);
  // FIFO-ordered remembered ports (checkpoint capture). Caller holds
  // mutex().
  std::vector<uint16_t> remembered_ports_locked() const;

  // Restored-from-checkpoint flag: a connect from an unknown port may
  // re-adopt an awaiting_resume slot by name.
  void set_restored() { restored_ = true; }
  bool restored() const { return restored_; }

  // Per-run session counters. Incremented under mutex() by the engine's
  // lifecycle sites; zeroed — except the lifetime ones — at the warmup
  // boundary by reset_run_counters().
  struct RunCounters {
    uint64_t evictions = 0;          // timeout reaps
    uint64_t rejected_connects = 0;  // kServerFull
    uint64_t rejected_busy = 0;      // kServerBusy (admission control)
    uint64_t reassignments = 0;      // region-based migrations
    uint64_t stall_reassignments = 0;  // watchdog migrations
    uint64_t governor_evictions = 0;   // governor rung-4 evictions
    uint64_t handoffs_out = 0;         // sessions extracted for a neighbor
    uint64_t handoffs_in = 0;          // sessions adopted from a neighbor
    uint64_t resumed_clients = 0;      // lifetime: checkpoint re-adoptions
  };
  RunCounters counters;

  // Warmup boundary: zeroes the per-run counters above. resumed_clients
  // survives — restore/resume happens before the measurement window and
  // is inspected after it.
  void reset_run_counters();

 private:
  vt::Platform& platform_;
  const ServerConfig& cfg_;
  std::unique_ptr<vt::Mutex> mu_;
  std::vector<ClientSlot> slots_;  // fixed capacity max_clients
  std::unordered_map<uint16_t, int> slot_by_port_;
  std::vector<std::vector<int>> reply_queues_;  // one per thread
  std::vector<int> deferred_replies_;           // guarded by mu_
  std::vector<int> pending_lifecycle_;          // guarded by mu_
  // Ascending slot indices of each owner's active clients. Written under
  // mu_; the reply phase reads them past the frame barrier.
  std::vector<std::vector<int>> active_slots_;
  // Guarded by mu_. The set answers membership; the deque keeps FIFO
  // eviction order for the bound.
  std::deque<uint16_t> remembered_evicted_;
  std::unordered_set<uint16_t> remembered_set_;
  bool restored_ = false;

  static bool active(const ClientSlot& c) {
    return c.in_use && !c.pending_spawn && !c.pending_disconnect;
  }
  // Every active-state or owner transition is bracketed by count(c, -1)
  // before and count(c, +1) after.
  void count(const ClientSlot& c, int delta);
  int index_of(const ClientSlot& c) const {
    return static_cast<int>(&c - slots_.data());
  }
  // What a new or re-adopted session must not inherit: liveness restarts
  // now, the peer has reconstructed no snapshot (no delta baselines), and
  // the rate limiter and the cost scan start over.
  void fresh_session(ClientSlot& c);
};

}  // namespace qserv::core
