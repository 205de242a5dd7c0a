#include "src/core/sequential_server.hpp"

namespace qserv::core {

SequentialServer::SequentialServer(vt::Platform& platform,
                                   net::Transport& net,
                                   const spatial::GameMap& map,
                                   ServerConfig cfg)
    : Server(platform, net, map, [&] {
        cfg.threads = 1;
        // The sequential server takes no locks at all.
        cfg.lock_policy = LockPolicy::kNone;
        return cfg;
      }()) {}

void SequentialServer::start() {
  platform_.spawn("seq-server", vt::Domain::kServer, [this] { main_loop(); });
}

void SequentialServer::main_loop() {
  ThreadStats& st = stats_[0];
  active_workers_.fetch_add(1, std::memory_order_acq_rel);
  while (!stop_requested()) {
    // S: spin in select until a client request arrives.
    bool ready = false;
    {
      PhaseScope idle(platform_, st, Phase::kIdle);
      ready = selectors_[0]->wait_until(platform_.now() + kSelectTimeout);
    }
    if (!ready) {
      // No traffic woke us, but silent clients still age: reap them even
      // when no frames are running, or a lone stalled client would hold
      // its slot forever.
      if (reap_due()) {
        reap_timed_out_clients(st);
        run_invariant_check();
      }
      for (FrameHook* h : hooks_) h->on_idle_wait(0);
      continue;
    }
    platform_.compute(cfg_.costs.select_syscall);

    const uint64_t fid = advance_frame();
    ++st.frames_participated;
    const vt::TimePoint frame_start = platform_.now();

    // P: world physics.
    world_step(st);

    // Rx/E: receive and process requests until the queue is empty.
    const int moves = drain_requests(0, st);
    st.requests_per_frame.add(moves);
    record_frame_trace(st, fid, moves);

    // T/Tx: form and send replies to everyone who sent a request, and
    // buffer global updates for everyone else. prepare_replies() seals
    // the frame's events and refreshes the entity view.
    prepare_replies(st);
    send_replies(0, st, /*charged_owners=*/1);

    // Frame end: the master window completes deferred lifecycle, reaps
    // timed-out clients, runs the subsystem master duties (governor
    // step), seals the frame, audits, and records the frame
    // metrics/trace.
    run_master_window(0, frame_start, moves, st);
  }
  // Must stay the last statement touching `this`: once the count hits
  // zero a shard supervisor may destroy the engine (Shard::quiesced()).
  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace qserv::core
