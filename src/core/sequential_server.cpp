#include "src/core/sequential_server.hpp"

#include "src/core/frame_pipeline.hpp"
#include "src/resilience/governor.hpp"

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
        pipeline_->maintenance().reap_timed_out_clients(st);
        pipeline_->maintenance().run_invariant_check();
      }
      hooks_.idle_wait(0);
      continue;
    }
    platform_.compute(cfg_.costs.select_syscall);

    const uint64_t fid = pipeline_->advance_frame();
    ++st.frames_participated;
    const vt::TimePoint frame_start = platform_.now();

    // P: world physics.
    pipeline_->world_phase().run(st);

    // Rx/E: receive and process requests until the queue is empty.
    const int moves = pipeline_->receive().drain(0, st, /*use_locks=*/false);
    st.requests_per_frame.add(moves);
    if (frame_trace_enabled_ &&
        !governor().at_least(resilience::kShedDebugWork))
      record_frame_trace(st, fid, moves);

    // T/Tx: form and send replies to everyone who sent a request, and
    // buffer global updates for everyone else. prepare() seals the
    // frame's events and refreshes the entity view.
    pipeline_->reply().prepare(st);
    pipeline_->reply().run(0, st, /*charged_owners=*/1);

    // Frame end: the maintenance phase completes deferred lifecycle,
    // reaps timed-out clients, runs the subsystem master duties (governor
    // step), seals the frame, audits, and records the frame
    // metrics/trace.
    pipeline_->maintenance().run_master_window(0, frame_start, moves, st,
                                               /*harvest_locks=*/false);
  }
  // Must stay the last statement touching `this`: once the count hits
  // zero a shard supervisor may destroy the engine (Shard::quiesced()).
  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace qserv::core
