// The hook seam between the Server (the frame engine) and its optional
// satellites: recovery, the shard layer and test probes. The server never
// calls a subsystem directly; it dispatches through HookList at fixed
// points of the frame, and subsystems call back only through Server's
// public methods (each adapter holds a core::Server&). Callback *presence*
// is part of replay determinism: a subsystem that draws serialization
// indexes or charges modelled compute simply does not register when
// disabled, which reproduces the old `if (recorder_ != nullptr)` gates
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/vthread/time.hpp"

namespace qserv::net {
struct MoveCmd;
}
namespace qserv::recovery {
enum class DropReason : uint8_t;
}

namespace qserv::core {

struct ThreadStats;

// Frame-scoped callbacks, dispatched at fixed points of every frame. All
// default to no-ops so a hook overrides only the points it needs; no
// callback may sleep, block, or charge compute the live run did not
// (overriders own their determinism budget — see the journal hooks).
class FrameHook {
 public:
  virtual ~FrameHook() = default;

  // Master only, inside the world phase, after (t0, dt) are fixed and
  // before world_phase() runs.
  virtual void on_world_tick(int /*tid*/, vt::TimePoint /*t0*/,
                             vt::Duration /*dt*/) {}
  // Exec phase, after the move executed and its region locks released.
  virtual void on_move_executed(int /*tid*/, uint16_t /*port*/,
                                uint32_t /*entity*/, uint64_t /*order*/,
                                vt::TimePoint /*t0*/,
                                const net::MoveCmd& /*cmd*/) {}
  // Receive phase: a datagram was seen but did not mutate the world.
  virtual void on_drop(int /*tid*/, uint16_t /*port*/,
                       recovery::DropReason /*why*/) {}
  // Master window, after lifecycle completion, timeout reaping and the
  // server's own resilience duties (watchdog verdict, governor step),
  // before the frame is sealed. The place for subsystem "master duties"
  // (the shard layer's handoff mailbox).
  virtual void on_master_window(int /*tid*/, vt::TimePoint /*frame_start*/,
                                ThreadStats& /*st*/) {}
  // Master window, after every mutation of the frame (including any
  // master-window evictions): the frame's final state is observable.
  virtual void on_frame_sealed() {}
  // Master window, last callback of the frame (metrics point).
  virtual void on_frame_end(vt::TimePoint /*frame_start*/, int /*moves*/,
                            ThreadStats& /*st*/) {}
  // A worker's select() timed out with no frame due: the engine is idle
  // but alive. Liveness beacons hang off this (a starved engine parked in
  // select must not read as a wedged one); implementations must be cheap
  // and must not draw orders or charge compute — no frame is open.
  virtual void on_idle_wait(int /*tid*/) {}
};

// Client-session lifecycle callbacks. All are invoked with the registry
// mutex held (they fire at the mutation site); implementations must not
// re-lock it.
class LifecycleObserver {
 public:
  virtual ~LifecycleObserver() = default;

  // Master window: the deferred spawn materialized the player entity.
  virtual void on_client_spawned(int /*owner*/, uint16_t /*port*/,
                                 uint32_t /*entity*/,
                                 const std::string& /*name*/,
                                 int64_t /*t_ns*/) {}
  // Master window: a pending disconnect is being applied (entity removal
  // follows this call).
  virtual void on_client_disconnected(int /*owner*/, uint16_t /*port*/,
                                      uint32_t /*entity*/,
                                      int64_t /*t_ns*/) {}
  // A spawned client is being evicted (reap or governor); entity removal
  // follows this call.
  virtual void on_client_evicted(int /*owner*/, uint16_t /*port*/,
                                 uint32_t /*entity*/) {}
  // Ownership moved between worker threads (region or stall migration).
  virtual void on_client_migrated(int /*from*/, int /*to*/,
                                  uint16_t /*port*/) {}
};

// Registered hook set, dispatched in registration order. Registration
// happens before start() and never changes while the loops run, so
// dispatch is lock-free.
class HookList {
 public:
  void add(FrameHook* h) { frame_.push_back(h); }
  void add(LifecycleObserver* o) { lifecycle_.push_back(o); }

  void world_tick(int tid, vt::TimePoint t0, vt::Duration dt) const {
    for (FrameHook* h : frame_) h->on_world_tick(tid, t0, dt);
  }
  void move_executed(int tid, uint16_t port, uint32_t entity, uint64_t order,
                     vt::TimePoint t0, const net::MoveCmd& cmd) const {
    for (FrameHook* h : frame_)
      h->on_move_executed(tid, port, entity, order, t0, cmd);
  }
  void drop(int tid, uint16_t port, recovery::DropReason why) const {
    for (FrameHook* h : frame_) h->on_drop(tid, port, why);
  }
  void master_window(int tid, vt::TimePoint frame_start,
                     ThreadStats& st) const {
    for (FrameHook* h : frame_) h->on_master_window(tid, frame_start, st);
  }
  void frame_sealed() const {
    for (FrameHook* h : frame_) h->on_frame_sealed();
  }
  void frame_end(vt::TimePoint frame_start, int moves, ThreadStats& st) const {
    for (FrameHook* h : frame_) h->on_frame_end(frame_start, moves, st);
  }
  void idle_wait(int tid) const {
    for (FrameHook* h : frame_) h->on_idle_wait(tid);
  }

  void client_spawned(int owner, uint16_t port, uint32_t entity,
                      const std::string& name, int64_t t_ns) const {
    for (LifecycleObserver* o : lifecycle_)
      o->on_client_spawned(owner, port, entity, name, t_ns);
  }
  void client_disconnected(int owner, uint16_t port, uint32_t entity,
                           int64_t t_ns) const {
    for (LifecycleObserver* o : lifecycle_)
      o->on_client_disconnected(owner, port, entity, t_ns);
  }
  void client_evicted(int owner, uint16_t port, uint32_t entity) const {
    for (LifecycleObserver* o : lifecycle_)
      o->on_client_evicted(owner, port, entity);
  }
  void client_migrated(int from, int to, uint16_t port) const {
    for (LifecycleObserver* o : lifecycle_)
      o->on_client_migrated(from, to, port);
  }

 private:
  std::vector<FrameHook*> frame_;
  std::vector<LifecycleObserver*> lifecycle_;
};

}  // namespace qserv::core
