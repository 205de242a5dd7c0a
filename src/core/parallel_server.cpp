#include "src/core/parallel_server.hpp"

#include "src/core/lock_manager.hpp"
#include "src/net/fault_scheduler.hpp"
#include "src/obs/trace.hpp"
#include "src/resilience/watchdog.hpp"

namespace qserv::core {

ParallelServer::ParallelServer(vt::Platform& platform,
                               net::Transport& net,
                               const spatial::GameMap& map, ServerConfig cfg)
    : Server(platform, net, map, cfg),
      sync_mu_(platform.make_mutex("frame-sync")),
      sync_cv_(platform.make_condvar()) {
  if (cfg_.resilience.watchdog_timeout.ns > 0)
    watchdog_ = std::make_unique<resilience::WorkerWatchdog>(
        cfg_.resilience, cfg_.threads);
}

void ParallelServer::start() {
  for (int t = 0; t < cfg_.threads; ++t) {
    platform_.spawn("server-worker-" + std::to_string(t), vt::Domain::kServer,
                    [this, t] { worker_loop(t); });
  }
  // On the simulated platform fibers cannot wedge between scheduling
  // points, and the select-timeout maintenance path already covers
  // detection deterministically; the wall-clock timer is only armed where
  // threads can really stall under the scheduler.
  if (watchdog_ != nullptr && !platform_.is_simulated())
    schedule_watchdog_timer();
}

void ParallelServer::schedule_watchdog_timer() {
  platform_.call_after(cfg_.resilience.watchdog_timeout / 2, [this] {
    if (stop_requested()) return;
    if (watchdog_->check_due(platform_.now(), /*self=*/-1)) {
      for (auto& sel : selectors_) sel->poke();
    }
    schedule_watchdog_timer();
  });
}

void ParallelServer::worker_loop(int tid) {
  ThreadStats& st = stats_[static_cast<size_t>(tid)];

  active_workers_.fetch_add(1, std::memory_order_acq_rel);
  while (!stop_requested()) {
    if (watchdog_ != nullptr) watchdog_->heartbeat(tid, platform_.now());

    // Chaos: serve any scheduled thread-stall fault here, at the top of
    // the loop — the worker holds no locks and is not a frame participant,
    // so a wedged worker never hangs a barrier; it simply goes silent and
    // its heartbeat ages until the watchdog adjudicates. (A worker wedged
    // *inside* a frame would hang the barrier — that failure mode is out
    // of scope; see DESIGN.md §8.)
    if (const net::FaultScheduler* f = net_.faults_or_null()) {
      const vt::Duration stall =
          f->stall_remaining(platform_.now(), tid, cfg_.base_port);
      if (stall.ns > 0) {
        stalls_injected_.fetch_add(1, std::memory_order_relaxed);
        if (st.tracer != nullptr && st.tracer->enabled())
          st.tracer->record(st.trace_track, "stalled", platform_.now().ns,
                            stall.ns);
        platform_.sleep_for(stall);
        continue;
      }
    }

    // S: wait for requests on this thread's private port.
    bool ready = false;
    {
      PhaseScope idle(platform_, st, Phase::kIdle);
      ready = selectors_[static_cast<size_t>(tid)]->wait_until(
          platform_.now() + kSelectTimeout);
    }
    // A select timeout normally just re-checks the stop flag — but when a
    // client has been silent past client_timeout, or a peer worker's
    // heartbeat is stale, fall through and run a maintenance frame so the
    // master duties below can reap / adjudicate even on an otherwise idle
    // server.
    if (!ready && !reap_due() && !watchdog_due(tid)) {
      for (FrameHook* h : hooks_) h->on_idle_wait(tid);
      continue;
    }
    platform_.compute(cfg_.costs.select_syscall);

    bool is_master = false;
    sync_mu_->lock();
    if (sync_.phase == FramePhase::kIdle) {
      // Master election: first thread to detect an arriving request.
      is_master = true;
      sync_.phase = FramePhase::kWorld;
      sync_.master = tid;
      sync_.frame_id = advance_frame();
      sync_.participants = 1;
      sync_.participants_mask = 1ull << tid;
      sync_.done_processing = 0;
      sync_.done_reply = 0;
      sync_.frame_moves = 0;
      sync_.frame_start = platform_.now();
      sync_mu_->unlock();

      // Extension: batch requests by delaying the frame start, so that
      // threads whose requests arrive slightly later join this frame
      // instead of waiting a whole frame (§5.2 future work). The master's
      // deliberate delay is accounted as idle time.
      if (cfg_.batch_window.ns > 0) {
        PhaseScope idle(platform_, st, Phase::kIdle);
        platform_.sleep_for(cfg_.batch_window);
      }

      lock_manager_->frame_reset();
      // P: world physics, performed by the master alone.
      world_step(st);
      ++st.frames_as_master;

      // Extension: periodic dynamic re-partitioning of players to
      // threads by map region (§5.1 future work). Master-only, between
      // request phases, so ownership never changes mid-frame.
      if (cfg_.assign_policy == AssignPolicy::kRegion &&
          cfg_.reassign_interval.ns > 0 &&
          platform_.now() >= next_reassign_) {
        reassign_clients();
        next_reassign_ = platform_.now() + cfg_.reassign_interval;
      }

      sync_mu_->lock();
      sync_.phase = FramePhase::kProcessing;
      platform_.compute(cfg_.costs.signal_syscall);
      sync_cv_->broadcast();
      sync_mu_->unlock();
    } else if (sync_.phase == FramePhase::kWorld) {
      // Join the frame being formed; wait for the world update to end.
      ++sync_.participants;
      sync_.participants_mask |= 1ull << tid;
      {
        PhaseScope wait(platform_, st, Phase::kInterWaitWorld,
                        static_cast<int64_t>(sync_.frame_id));
        while (sync_.phase == FramePhase::kWorld) sync_cv_->wait(*sync_mu_);
      }
      sync_mu_->unlock();
    } else {
      // Too late for this frame: wait for it to end; we are guaranteed
      // to take part in the next one (our queue is non-empty).
      const uint64_t fid = sync_.frame_id;
      {
        PhaseScope wait(platform_, st, Phase::kInterWaitFrame,
                        static_cast<int64_t>(fid));
        while (sync_.phase != FramePhase::kIdle && sync_.frame_id == fid)
          sync_cv_->wait(*sync_mu_);
      }
      sync_mu_->unlock();
      continue;
    }

    // Rx/E: drain this thread's request queue.
    const int moves = drain_requests(tid, st);
    st.requests_per_frame.add(moves);
    ++st.frames_participated;

    // Global synchronization before the reply phase.
    sync_mu_->lock();
    record_frame_trace(st, sync_.frame_id, moves);
    sync_.frame_moves += moves;
    ++sync_.done_processing;
    if (sync_.done_processing == sync_.participants) {
      // Last thread in flips the frame into the reply phase. The world
      // is frozen from here, so this is the single-threaded point where
      // the frame's events are sealed and the entity view is refreshed
      // for every thread to read.
      prepare_replies(st);
      sync_.phase = FramePhase::kReply;
      platform_.compute(cfg_.costs.signal_syscall);
      sync_cv_->broadcast();
    } else {
      PhaseScope wait(platform_, st, Phase::kIntraWait,
                      static_cast<int64_t>(sync_.frame_id));
      while (sync_.phase != FramePhase::kReply) sync_cv_->wait(*sync_mu_);
    }
    const uint64_t mask = sync_.participants_mask;
    sync_mu_->unlock();

    // T/Tx: replies to this thread's queued clients. The §3.3 buffer
    // updates it pays for cover its other clients; the master also pays
    // for the clients of threads not participating in this frame.
    const uint64_t own = 1ull << tid;
    send_replies(tid, st, is_master ? ~mask | own : own);

    // Frame end.
    sync_mu_->lock();
    ++sync_.done_reply;
    if (is_master) {
      {
        PhaseScope wait(platform_, st, Phase::kIntraWait,
                        static_cast<int64_t>(sync_.frame_id));
        while (sync_.done_reply < sync_.participants)
          sync_cv_->wait(*sync_mu_);
      }
      const int frame_moves = sync_.frame_moves;
      const vt::TimePoint frame_start = sync_.frame_start;
      sync_mu_->unlock();

      // Master duties (all participants are past their reply phase and
      // non-participants are blocked on kIdle, so this window is
      // single-threaded — safe for entity removal and the audit walk):
      // harvest the per-frame lock statistics, then the master window
      // completes deferred lifecycle, reaps timed-out clients, runs the
      // subsystem master duties (watchdog adjudication, governor step),
      // seals the frame, audits, and records the frame metrics/trace.
      // Then signal the frame end to wake any threads that missed this
      // frame.
      lock_manager_->frame_harvest(frame_lock_stats_);
      run_master_window(tid, frame_start, frame_moves, st);

      sync_mu_->lock();
      sync_.phase = FramePhase::kIdle;
      sync_.master = -1;
      platform_.compute(cfg_.costs.signal_syscall);
      sync_cv_->broadcast();
      sync_mu_->unlock();
    } else {
      sync_cv_->broadcast();  // possibly the master waits on us
      sync_mu_->unlock();
    }
  }
  // Must stay the last statement touching `this`: once the count hits
  // zero a shard supervisor may destroy the engine (Shard::quiesced()).
  active_workers_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace qserv::core
