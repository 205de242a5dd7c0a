// The hook seam between the Server (the frame engine) and its external
// satellites: the shard layer and test probes. The server's own
// subsystems — governor, watchdog, flight recorder — are members it calls
// directly; everything else attaches here, is dispatched at fixed points
// of the frame, and calls back only through Server's public methods. The
// seam itself draws no serialization index: a hook that mutates the
// engine (the shard hook's extract_session / adopt_session) is journaled
// by those methods.
#pragma once

#include "src/vthread/time.hpp"

namespace qserv::core {

struct ThreadStats;

// Frame-scoped callbacks, dispatched in registration order at fixed
// points of every frame. Registration happens before start() and never
// changes while the loops run, so dispatch is lock-free. All default to
// no-ops so a hook overrides only the points it needs; no callback may
// sleep, block, or charge compute the live run did not.
class FrameHook {
 public:
  virtual ~FrameHook() = default;

  // Master window, after lifecycle completion, timeout reaping and the
  // server's own resilience duties (watchdog verdict, governor step),
  // before the frame is sealed. The place for subsystem "master duties"
  // (the shard layer's handoff mailbox).
  virtual void on_master_window(int /*tid*/, vt::TimePoint /*frame_start*/,
                                ThreadStats& /*st*/) {}
  // Master window, last callback of the frame (metrics point). Runs after
  // every mutation of the frame and after the server sealed the frame
  // into its flight recorder (and took the checkpoint, when due): the
  // frame's final state is observable.
  virtual void on_frame_end(vt::TimePoint /*frame_start*/, int /*moves*/,
                            ThreadStats& /*st*/) {}
  // A worker's select() timed out with no frame due: the engine is idle
  // but alive. Liveness beacons hang off this (a starved engine parked in
  // select must not read as a wedged one); implementations must be cheap
  // and must not draw orders or charge compute — no frame is open.
  virtual void on_idle_wait(int /*tid*/) {}
};

}  // namespace qserv::core
