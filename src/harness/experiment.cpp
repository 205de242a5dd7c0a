#include "src/harness/experiment.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "src/core/alloc_probe.hpp"
#include "src/core/lock_manager.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/obs/trace.hpp"
#include "src/recovery/blackbox.hpp"
#include "src/recovery/replay.hpp"
#include "src/resilience/governor.hpp"
#include "src/resilience/watchdog.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"

namespace qserv::harness {

std::shared_ptr<const spatial::GameMap> default_map(uint64_t seed) {
  static std::mutex mu;
  static std::map<uint64_t, std::shared_ptr<const spatial::GameMap>> cache;
  std::lock_guard<std::mutex> g(mu);
  auto& slot = cache[seed];
  if (slot == nullptr) {
    slot = std::make_shared<const spatial::GameMap>(
        spatial::make_large_deathmatch(seed));
  }
  return slot;
}

ExperimentConfig paper_config(ServerMode mode, int threads, int players,
                              core::LockPolicy policy) {
  ExperimentConfig cfg;
  cfg.mode = mode;
  cfg.server.threads = threads;
  cfg.server.lock_policy = policy;
  cfg.players = players;
  cfg.map = default_map();
  // Table 1: 4 x Xeon 1.4 GHz, 2-way hyper-threading.
  cfg.machine.cores = 4;
  cfg.machine.ht_per_core = 2;
  cfg.machine.ht_throughput = 1.25;
  return cfg;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const auto host_t0 = std::chrono::steady_clock::now();

  vt::SimPlatform platform(cfg.machine);
  net::VirtualNetwork::Config net_cfg;
  // Named seed streams (util/rng.hpp): each subsystem draws from its own
  // derived stream of the root seed, so no two consume the same sequence
  // and replay/determinism audits can reason about provenance.
  net_cfg.seed = derive_seed(cfg.seed, streams::kNetwork);
  net::VirtualNetwork network(platform, net_cfg);
  if (cfg.configure_network) cfg.configure_network(network);

  std::shared_ptr<const spatial::GameMap> map =
      cfg.map != nullptr ? cfg.map : default_map();

  core::ServerConfig scfg = cfg.server;
  scfg.seed = cfg.seed;
  std::unique_ptr<core::Server> server;
  if (cfg.mode == ServerMode::kSequential) {
    server = std::make_unique<core::SequentialServer>(platform, network, *map,
                                                      scfg);
  } else {
    server =
        std::make_unique<core::ParallelServer>(platform, network, *map, scfg);
  }

  bots::ClientDriver::Config dcfg;
  dcfg.players = cfg.players;
  dcfg.frame_interval = cfg.client_frame;
  dcfg.seed = derive_seed(cfg.seed, streams::kClientDriver);
  dcfg.aggression = cfg.bot_aggression;
  dcfg.grenade_ratio = cfg.bot_grenade_ratio;
  dcfg.server_silence_timeout = cfg.client_silence_timeout;
  dcfg.churn = cfg.churn;
  bots::ClientDriver driver(platform, network, *map, *server, dcfg);

  if (cfg.frame_trace) server->enable_frame_trace();
  if (cfg.tracer != nullptr || cfg.metrics != nullptr)
    server->attach_observability(cfg.tracer, cfg.metrics);
  server->start();
  driver.start();

  uint64_t overflow_at_measure_start = 0;
  uint64_t allocs_at_measure_start = 0;
  uint64_t frames_at_measure_start = 0;
  platform.call_after(cfg.warmup, [&] {
    server->reset_stats();
    driver.begin_measurement();
    overflow_at_measure_start = network.packets_overflowed();
    allocs_at_measure_start = core::alloc_count();
    frames_at_measure_start = server->frames();
  });
  platform.call_after(cfg.warmup + cfg.measure, [&] {
    server->request_stop();
    driver.request_stop();
  });

  platform.run();

  ExperimentResult out;
  const auto agg = driver.aggregate(cfg.measure);
  out.response_rate = agg.response_rate;
  out.response_ms_mean = agg.response_ms_mean;
  out.response_ms_p50 = agg.response_ms_p50;
  out.response_ms_p95 = agg.response_ms_p95;
  out.snapshot_entities_mean = agg.snapshot_entities_mean;
  out.connected = agg.connected;
  out.total_frags = agg.total_frags;

  out.breakdown = server->total_breakdown();
  out.pct = core::to_percent(out.breakdown);
  for (const auto& ts : server->thread_stats())
    out.per_thread.push_back(ts.breakdown);

  out.locks = server->total_lock_stats();
  if (out.locks.requests_locked > 0) {
    out.distinct_leaves_per_request_pct =
        static_cast<double>(out.locks.distinct_leaves) /
        static_cast<double>(out.locks.requests_locked) /
        static_cast<double>(server->lock_manager().leaf_count());
  }
  if (out.locks.lock_requests > 0) {
    out.relock_pct = static_cast<double>(out.locks.relocks) /
                     static_cast<double>(out.locks.lock_requests);
  }
  const auto& fls = server->frame_lock_stats();
  out.leaves_locked_per_frame_pct = fls.leaves_locked_pct.mean();
  out.leaves_shared_per_frame_pct = fls.leaves_shared_pct.mean();
  out.lock_ops_per_leaf_per_frame = fls.lock_ops_per_leaf.mean();

  StatAccumulator rpf;
  for (const auto& ts : server->thread_stats()) rpf.merge(ts.requests_per_frame);
  out.requests_per_thread_frame_mean = rpf.mean();
  out.requests_per_thread_frame_stddev = rpf.stddev();
  const vt::Duration iw = out.breakdown.inter_wait();
  if (iw.ns > 0) {
    out.inter_wait_world_fraction =
        static_cast<double>(out.breakdown.inter_wait_world.ns) /
        static_cast<double>(iw.ns);
  }

  if (cfg.frame_trace) {
    for (const auto& ts : server->thread_stats())
      out.frame_traces.push_back(ts.frame_trace);
  }
  out.frame_trace_dropped = server->frame_trace_dropped();
  out.frames = server->frames();
  out.requests = server->total_requests();
  out.replies = server->total_replies();
  out.overflow_drops =
      network.packets_overflowed() - overflow_at_measure_start;
  const core::ClientRegistry::RunCounters& sessions =
      server->registry().counters;
  out.reassignments = sessions.reassignments;
  out.evictions = sessions.evictions;
  out.rejected_connects = sessions.rejected_connects;
  out.invariant_violations = server->invariant_violations();
  out.client_sessions = agg.sessions;
  out.client_crashes = agg.crashes;
  out.client_quits = agg.graceful_quits;
  out.client_rejoins = agg.rejoins;
  out.client_evictions_seen = agg.evictions_observed;
  out.rejected_busy = sessions.rejected_busy;
  out.moves_rate_limited = server->total_moves_rate_limited();
  out.packets_oversized = server->total_packets_oversized();
  out.moves_coalesced = server->total_moves_coalesced();
  out.governor_evictions = sessions.governor_evictions;
  out.governor_steps_down = server->governor().counters().steps_down;
  out.governor_steps_up = server->governor().counters().steps_up;
  out.frames_degraded = server->governor().counters().frames_degraded;
  out.max_degrade_level = server->governor().max_level_reached();
  out.stalls_injected = server->stalls_injected();
  if (const auto* wd = server->watchdog()) {
    out.stalls_detected = wd->counters().stalls_detected;
    out.stalls_recovered = wd->counters().stalls_recovered;
    out.stall_reassignments = sessions.stall_reassignments;
  }
  out.client_rejected_busy = agg.rejected_busy;
  out.client_connect_retries = agg.connect_retries;
  out.client_moves_sent = agg.moves_sent;
  out.client_replies = agg.replies;
  if (const auto* ckpt = server->checkpoints()) {
    out.checkpoints_taken = ckpt->count();
    out.checkpoint_bytes = static_cast<uint64_t>(ckpt->last_bytes());
    out.checkpoint_pause_ns = ckpt->max_pause_ns();
  }
  if (const auto* rec = server->recorder()) {
    out.journal_frames = rec->frames_sealed();
    out.journal_records = rec->records_staged();
  }
  if (const auto* bb = server->blackbox()) {
    out.blackbox_dumps = bb->dumps();
    out.blackbox_last_path = bb->last_path();
  }
  out.resumed_clients = sessions.resumed_clients;
  if (cfg.verify_replay && server->checkpoints() != nullptr &&
      server->recorder() != nullptr) {
    const auto rv =
        recovery::verify_recorded(*server->checkpoints(), *server->recorder());
    out.replay_ran = true;
    out.replay_ok = rv.ok;
    out.replay_summary = rv.summary();
  }
  // Steady-state heap allocations per frame over the measurement window,
  // when the binary registered an allocation probe (bench binaries that
  // include bench/alloc_counter.hpp). -1 = no probe; omitted from JSON.
  const uint64_t measured_frames = server->frames() - frames_at_measure_start;
  if (core::alloc_probe_available() && measured_frames > 0) {
    out.allocs_per_frame =
        static_cast<double>(core::alloc_count() - allocs_at_measure_start) /
        static_cast<double>(measured_frames);
  }
  out.sim_events = platform.events_processed();
  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  return out;
}

}  // namespace qserv::harness
