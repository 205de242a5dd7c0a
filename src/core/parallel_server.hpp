// The multithreaded game server (§3): N worker threads, each with a
// private UDP port and a statically assigned block of players. Frames are
// orchestrated exactly as Figure 3 describes:
//
//   select -> [master election] -> P (master only) -> Rx/E -> barrier ->
//   T/Tx -> frame end signal
//
// The first thread to observe a request becomes the frame's master and
// runs the world update; threads exiting select during the world update
// join the frame; threads exiting later wait for the next frame (and are
// guaranteed to participate in it). The three phases never overlap and
// always run in order — the two §3 invariants.
#pragma once

#include "src/core/server.hpp"

namespace qserv::core {

class ParallelServer final : public Server {
 public:
  ParallelServer(vt::Platform& platform, net::Transport& net,
                 const spatial::GameMap& map, ServerConfig cfg);

  void start() override;

 private:
  enum class FramePhase : uint8_t { kIdle, kWorld, kProcessing, kReply };

  void worker_loop(int tid);

  // RealPlatform safety net: a self-rescheduling timer that pokes every
  // selector when a heartbeat is stale, so an otherwise idle live worker
  // wakes and runs the maintenance frame that adjudicates the stall. The
  // timer only *detects* — all watchdog state changes happen in the
  // master window.
  void schedule_watchdog_timer();

  // Frame synchronization state, guarded by sync_mu_.
  struct FrameSync {
    FramePhase phase = FramePhase::kIdle;
    uint64_t frame_id = 0;
    int master = -1;
    int participants = 0;
    uint64_t participants_mask = 0;
    int done_processing = 0;
    int done_reply = 0;
    int frame_moves = 0;        // moves executed by all participants
    vt::TimePoint frame_start{};  // master election time (frame metrics)
  };

  std::unique_ptr<vt::Mutex> sync_mu_;
  std::unique_ptr<vt::CondVar> sync_cv_;
  FrameSync sync_;
};

}  // namespace qserv::core
