// The resilience subsystem's attachment to the frame engine: owns the
// FrameGovernor (always) and the WorkerWatchdog (parallel servers that ask
// for one), and serves their master-window duties — stall adjudication
// with client migration, then the degradation-ladder step — through
// Server's public master-window verbs.
#pragma once

#include <memory>

#include "src/core/frame_hooks.hpp"
#include "src/resilience/governor.hpp"
#include "src/resilience/watchdog.hpp"

namespace qserv::core {
class Server;
}

namespace qserv::resilience {

class ServerResilience final : public core::FrameHook {
 public:
  explicit ServerResilience(core::Server& server);

  ServerResilience(const ServerResilience&) = delete;
  ServerResilience& operator=(const ServerResilience&) = delete;

  FrameGovernor& governor() { return governor_; }
  const FrameGovernor& governor() const { return governor_; }

  // Creates the watchdog (parallel servers with a timeout configured);
  // returns a raw pointer the caller may cache — lifetime matches this
  // hook.
  WorkerWatchdog* arm_watchdog(int threads);
  WorkerWatchdog* watchdog() const { return watchdog_.get(); }

  // Watchdog adjudication (stall migration + dumps) then the governor
  // step, in the old master-duties order.
  void on_master_window(int tid, vt::TimePoint frame_start,
                        core::ThreadStats& st) override;

 private:
  core::Server& server_;
  FrameGovernor governor_;
  std::unique_ptr<WorkerWatchdog> watchdog_;
  vt::TimePoint next_expensive_evict_{};
};

}  // namespace qserv::resilience
