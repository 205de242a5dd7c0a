#include "src/harness/shard_experiment.hpp"

#include <chrono>
#include <memory>

#include "src/harness/experiment.hpp"
#include "src/obs/fleet.hpp"
#include "src/recovery/journal.hpp"
#include "src/util/rng.hpp"

namespace qserv::harness {

ShardExperimentResult run_shard_experiment(const ShardExperimentConfig& cfg) {
  const auto host_t0 = std::chrono::steady_clock::now();

  vt::SimPlatform platform(cfg.machine);
  net::VirtualNetwork::Config net_cfg;
  net_cfg.seed = derive_seed(cfg.seed, streams::kNetwork);
  // Per-(src,dst)-flow RNG in the virtual network: one shard's traffic
  // cannot perturb another shard's loss/jitter draws, which is what makes
  // an unaffected shard's digest stream comparable across runs.
  net_cfg.deterministic_flows = true;
  net::VirtualNetwork network(platform, net_cfg);
  if (cfg.configure_network) cfg.configure_network(network);

  std::shared_ptr<const spatial::GameMap> map =
      cfg.map != nullptr ? cfg.map : default_map();

  shard::Config fleet = cfg.fleet;
  fleet.server.seed = cfg.seed;
  shard::ShardManager mgr(platform, network, *map, fleet);
  if (cfg.fleet_obs != nullptr) cfg.fleet_obs->attach(mgr);

  bots::ClientDriver::Config dcfg;
  dcfg.players = cfg.players;
  dcfg.frame_interval = cfg.client_frame;
  dcfg.seed = derive_seed(cfg.seed, streams::kClientDriver);
  dcfg.aggression = cfg.bot_aggression;
  dcfg.grenade_ratio = cfg.bot_grenade_ratio;
  dcfg.server_silence_timeout = cfg.client_silence_timeout;
  dcfg.churn = cfg.churn;
  dcfg.join_port = [&mgr, players = cfg.players](int i) {
    return mgr.join_port(i, players);
  };
  // The driver only consults the server argument when join_port is unset;
  // shard 0's engine stands in.
  bots::ClientDriver driver(platform, network, *map, *mgr.shard(0).server(),
                            dcfg);

  if (cfg.schedule_faults) cfg.schedule_faults(platform, mgr);

  mgr.start();
  driver.start();

  platform.call_after(cfg.warmup, [&] {
    for (int i = 0; i < mgr.shards(); ++i) {
      if (!mgr.shard(i).down() && mgr.shard(i).server() != nullptr)
        mgr.shard(i).server()->reset_stats();
    }
    driver.begin_measurement();
  });
  // Periodic SLO observation windows, armed at the warmup boundary. The
  // callback must not re-arm once stopped or SimPlatform::run() (which
  // drains the timer queue to empty) would never return. It re-arms by
  // reference to this local, which outlives platform.run(); a closure
  // owning itself through a shared_ptr would never be freed.
  bool stopped = false;
  std::function<void()> tick;
  if (cfg.fleet_obs != nullptr && cfg.obs_period.ns > 0) {
    tick = [&] {
      if (stopped) return;
      cfg.fleet_obs->evaluate_window();
      platform.call_after(cfg.obs_period, tick);
    };
    platform.call_after(cfg.warmup + cfg.obs_period, tick);
  }
  platform.call_after(cfg.warmup + cfg.measure, [&] {
    stopped = true;
    mgr.request_stop();
    driver.request_stop();
  });

  platform.run();

  ShardExperimentResult out;
  const auto agg = driver.aggregate(cfg.measure);
  out.connected = agg.connected;
  out.response_rate = agg.response_rate;
  out.response_ms_mean = agg.response_ms_mean;
  out.response_ms_p95 = agg.response_ms_p95;
  out.client_moves_sent = agg.moves_sent;
  out.client_replies = agg.replies;
  out.client_sessions = agg.sessions;
  out.silence_reconnects = agg.silence_reconnects;

  out.shard_connected = mgr.total_connected();
  out.supervisor_ticks = mgr.supervisor().ticks();
  out.handoffs_returned = mgr.handoffs_returned();
  out.overflow_sheds = mgr.overflow_sheds();
  out.shards.resize(static_cast<size_t>(mgr.shards()));
  for (int i = 0; i < mgr.shards(); ++i) {
    ShardExperimentResult::PerShard& ps = out.shards[static_cast<size_t>(i)];
    static_cast<shard::ShardSupervisor::Report&>(ps) =
        mgr.supervisor().report(i);
    shard::Shard& s = mgr.shard(i);
    ps.restores = s.restores();
    ps.down = s.down();
    if (s.down() || s.server() == nullptr) continue;
    core::ParallelServer* srv = s.server();
    ps.frames = srv->frames();
    ps.connected = srv->connected_clients();
    ps.handoffs_out = srv->registry().counters.handoffs_out;
    ps.handoffs_in = srv->registry().counters.handoffs_in;
    ps.invariant_violations = srv->invariant_violations();
    out.handoffs_out += ps.handoffs_out;
    out.handoffs_in += ps.handoffs_in;
    if (srv->recorder() != nullptr) {
      recovery::JournalFile jf;
      if (recovery::decode_journal(srv->recorder()->encode(), jf) ==
          recovery::LoadError::kNone) {
        ps.journal_digests.reserve(jf.frames.size());
        for (const recovery::FrameJournal& fj : jf.frames)
          ps.journal_digests.emplace_back(fj.frame, fj.digest);
      }
    }
  }

  if (cfg.fleet_obs != nullptr) {
    // Post-stop: one last SLO window over the final state.
    cfg.fleet_obs->evaluate_window();
    out.handoff_flows = mgr.flows_issued();
    out.slo_evaluations = cfg.fleet_obs->slo().evaluations();
    out.slo_breaches = cfg.fleet_obs->slo().breaches();
  }

  out.sim_events = platform.events_processed();
  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  return out;
}

}  // namespace qserv::harness
