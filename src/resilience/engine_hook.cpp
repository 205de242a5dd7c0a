#include "src/resilience/engine_hook.hpp"

#include <string>

#include "src/core/server.hpp"
#include "src/obs/trace.hpp"

namespace qserv::resilience {

ServerResilience::ServerResilience(core::Server& server)
    : server_(server), governor_(server.config().resilience) {}

WorkerWatchdog* ServerResilience::arm_watchdog(int threads) {
  watchdog_ = std::make_unique<WorkerWatchdog>(server_.config().resilience,
                                               threads);
  return watchdog_.get();
}

void ServerResilience::on_master_window(int tid, vt::TimePoint frame_start,
                                        core::ThreadStats& st) {
  vt::Platform& platform = server_.platform();
  // Watchdog adjudication: stale heartbeats become stalls, and a stalled
  // worker's clients migrate to live threads right here — master election
  // next frame simply proceeds without it.
  if (watchdog_ != nullptr) {
    const auto verdict = watchdog_->master_check(platform.now(), tid);
    for (const int stalled : verdict.newly_stalled) {
      const int migrated = server_.migrate_clients_from(stalled);
      if (st.tracer != nullptr && st.tracer->enabled())
        st.tracer->record(st.trace_track, "worker-stalled",
                          platform.now().ns, 0, stalled * 1000 + migrated);
      server_.dump_blackbox("stall", "worker " + std::to_string(stalled) +
                                         " adjudicated stalled; migrated " +
                                         std::to_string(migrated) +
                                         " clients");
    }
    for (const int back : verdict.recovered) {
      if (st.tracer != nullptr && st.tracer->enabled())
        st.tracer->record(st.trace_track, "worker-recovered",
                          platform.now().ns, 0, back);
    }
  }
  // Governor: feed the finished frame, possibly stepping the ladder (and
  // serving its eviction rung).
  const int before = governor_.level();
  const int level = governor_.on_frame(platform.now() - frame_start);
  if (level != before && st.tracer != nullptr && st.tracer->enabled())
    st.tracer->record(st.trace_track, "degrade-step", platform.now().ns, 0,
                      level);
  if (level >= kEvictExpensive && platform.now() >= next_expensive_evict_) {
    server_.evict_most_expensive(st);
    next_expensive_evict_ = platform.now() + kEvictInterval;
  }
}

}  // namespace qserv::resilience
