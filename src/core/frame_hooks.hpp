// The hook seam between the Server (the frame engine) and its external
// satellites: the shard layer and test probes (the event-log oracle rides
// LifecycleObserver). The server's own subsystems — governor, watchdog,
// flight recorder — are members it calls directly; everything else
// attaches here, is dispatched at fixed points of the frame, and calls
// back only through Server's public methods. The seam itself draws no
// serialization index: a hook that mutates the engine (the shard hook's
// extract_session / adopt_session) is journaled by those methods.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/vthread/time.hpp"

namespace qserv::core {

struct ThreadStats;

// Frame-scoped callbacks, dispatched at fixed points of every frame. All
// default to no-ops so a hook overrides only the points it needs; no
// callback may sleep, block, or charge compute the live run did not.
class FrameHook {
 public:
  virtual ~FrameHook() = default;

  // Master window, after lifecycle completion, timeout reaping and the
  // server's own resilience duties (watchdog verdict, governor step),
  // before the frame is sealed. The place for subsystem "master duties"
  // (the shard layer's handoff mailbox).
  virtual void on_master_window(int /*tid*/, vt::TimePoint /*frame_start*/,
                                ThreadStats& /*st*/) {}
  // Master window, after every mutation of the frame (including any
  // master-window evictions) and after the server sealed the frame into
  // its flight recorder (and took the checkpoint, when due): the frame's
  // final state is observable.
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
