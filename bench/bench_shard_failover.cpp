// Shard failover — what does a shard crash cost the fleet, and does the
// blast radius stay inside the failure domain?
//
// Two identical 4-shard runs at the paper's capacity anchor per shard
// (4 threads x 160 players each, 640 players total), sessions pinned to
// their join shard so the crash is the only difference between runs:
//
//   baseline  — no faults;
//   failover  — shard 1 is crashed mid-measure. The supervisor must
//               quarantine it, rebuild the engine, restore the last
//               frame-aligned checkpoint, replay the journal tail to the
//               failure frame (digest-verified per frame), and resume
//               every client in place.
//
// Guards (exit non-zero on any breach — CI runs this as a smoke check):
//   * zero clients lost: all 640 clients hold live sessions at the end,
//     with zero silence-timeout reconnects (in-place resume, not rejoin);
//   * the host-clock recovery pause stays under 12.5 ms — half a 25 ms
//     master frame, same budget as the checkpoint writer's;
//   * the restored tail replay is digest-verified to the failure frame;
//   * fault isolation: the three unaffected shards' per-frame journal
//     digest streams are bit-identical to the baseline run's;
//   * SLO verdict: both runs carry the fleet observability plane, and
//     every observation window must hold the declarative fleet SLOs
//     (frame p99, recovery pause, handoff latency, zero lost clients);
//   * the SLO monitor actually detects: an overloaded 1-thread shard is
//     run as a canary and MUST breach the 12.5 ms frame-p99 budget.
//
// --trace captures a third, handoff-enabled run (shard 1 crashed
// mid-measure) into one merged Chrome trace: each shard renders as its
// own process, session handoffs draw as connected flow arrows between
// shard timelines, and the supervisor's quarantine/restore transitions
// appear as instant events on the failed shard's track.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/harness/shard_experiment.hpp"
#include "src/obs/fleet.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/shard/manager.hpp"

using namespace qserv;

namespace {

constexpr int kShards = 4;
constexpr int kPlayersPerShard = 160;  // paper's 4-thread capacity anchor
constexpr double kMaxPauseMs = 12.5;   // half a 25 ms master frame

harness::ShardExperimentConfig fleet_config() {
  harness::ShardExperimentConfig cfg;
  cfg.fleet.shards = kShards;
  cfg.fleet.server.threads = 4;
  cfg.fleet.server.lock_policy = core::LockPolicy::kConservative;
  cfg.fleet.server.recovery.enabled = true;
  cfg.fleet.server.recovery.checkpoint_interval = 64;
  cfg.fleet.server.recovery.journal_frames = 256;
  // Pin sessions to their join shard: with no cross-shard traffic the
  // unaffected shards' digest streams are comparable across runs.
  cfg.fleet.boundary_margin = 1e9f;
  cfg.players = kShards * kPlayersPerShard;
  cfg.warmup = vt::seconds_d(bench::env_seconds("QSERV_WARMUP_SECONDS", 2.0));
  cfg.measure = vt::seconds_d(bench::env_seconds("QSERV_MEASURE_SECONDS", 8.0));
  // Backstop only: the acceptance path is in-place resume, and the zero
  // silence-reconnects guard proves the backstop never fired.
  cfg.client_silence_timeout = vt::seconds(2);
  cfg.seed = 42;
  // One simulated socket per server thread across the fleet.
  cfg.machine.cores = 16;
  cfg.machine.ht_per_core = 2;
  return cfg;
}

std::string shard_point_json(const char* run, int index,
                             const harness::ShardExperimentResult::PerShard& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"run\":\"%s\",\"shard\":%d,\"state\":\"%s\",\"frames\":%" PRIu64
      ",\"connected\":%d,\"restores\":%d,\"escalations\":%" PRIu64
      ",\"pause_ms\":%.3f,\"used_tail\":%s,\"tail_frames\":%" PRIu64
      ",\"handoffs_in\":%" PRIu64 ",\"invariant_violations\":%" PRIu64 "}",
      run, index, shard::shard_state_name(s.state), s.frames, s.connected,
      s.restores, s.escalations, s.last_pause_ms,
      s.last_mode == shard::RestoreMode::kTailReplay ? "true" : "false",
      static_cast<uint64_t>(s.last_stats.tail_frames), s.handoffs_in,
      s.invariant_violations);
  return buf;
}

// One "slo" group point per run: the monitor's verdict plus every
// breach, structured (qserv-trend and humans both read these).
std::string slo_point_json(const char* run,
                           const harness::ShardExperimentResult& r) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("run", run);
  w.kv("handoff_flows", r.handoff_flows);
  w.kv("slo_evaluations", r.slo_evaluations);
  w.kv("slo_ok", r.slo_breaches.empty());
  w.key("slo_breaches");
  w.begin_array();
  for (const obs::SloBreach& b : r.slo_breaches) {
    w.begin_object();
    w.kv("slo", b.slo);
    w.kv("metric", b.metric);
    w.kv("scope", b.scope);
    w.kv("observed", b.observed);
    w.kv("bound", b.bound);
    w.kv("t_seconds", b.t_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOutput out("shard_failover", argc, argv);
  bench::print_header(
      "Shard failover — supervised recovery cost and blast radius",
      "robustness extension (multi-shard engine, zero-client-loss failover)");

  bool failed = false;
  auto fail = [&](const char* fmt, auto... args) {
    std::fprintf(stderr, fmt, args...);
    failed = true;
  };

  // ---- baseline: the same fleet, no faults --------------------------
  // Both guarded runs carry the full observability plane (per-shard
  // metrics + SLO monitor, no tracer). It charges no modelled
  // compute, and both runs carry it identically, so the digest
  // bit-identity guard still compares like with like.
  auto base_cfg = fleet_config();
  obs::FleetObs::Config obs_cfg;
  obs_cfg.expected_clients = base_cfg.players;
  obs::FleetObs base_obs(nullptr, obs_cfg);
  base_cfg.fleet_obs = &base_obs;
  std::printf("running baseline fleet (%d shards x %d players)...\n", kShards,
              kPlayersPerShard);
  std::fflush(stdout);
  const auto baseline = harness::run_shard_experiment(base_cfg);

  // ---- failover: crash shard 1 mid-measure --------------------------
  auto crash_cfg = fleet_config();
  obs::FleetObs crash_obs(nullptr, obs_cfg);
  crash_cfg.fleet_obs = &crash_obs;
  const vt::Duration crash_at =
      crash_cfg.warmup + vt::Duration{crash_cfg.measure.ns / 2};
  crash_cfg.schedule_faults = [crash_at](vt::Platform& p,
                                         shard::ShardManager& mgr) {
    p.call_after(crash_at, [&mgr] { mgr.crash_shard(1); });
  };
  std::printf("running failover fleet (shard 1 crashed at t=%.1fs)...\n",
              static_cast<double>(crash_at.ns) / 1e9);
  std::fflush(stdout);
  const auto failover = harness::run_shard_experiment(crash_cfg);

  // ---- report --------------------------------------------------------
  Table fleet("Fleet comparison (640 players, shard 1 crashed mid-measure)");
  fleet.header({"run", "connected", "resp/s", "resp p95 ms", "reconnects",
                "supervisor ticks"});
  for (const auto* rr : {&baseline, &failover}) {
    fleet.row({rr == &baseline ? "baseline" : "failover",
               std::to_string(rr->connected), Table::num(rr->response_rate, 0),
               Table::num(rr->response_ms_p95, 2),
               std::to_string(rr->silence_reconnects),
               std::to_string(rr->supervisor_ticks)});
  }
  fleet.print();

  Table per("Failover run, per shard");
  per.header({"shard", "state", "frames", "connected", "restores",
              "pause ms", "tail frames", "digest ok"});
  for (int i = 0; i < kShards; ++i) {
    const auto& s = failover.shards[static_cast<size_t>(i)];
    per.row({std::to_string(i), shard::shard_state_name(s.state),
             std::to_string(s.frames), std::to_string(s.connected),
             std::to_string(s.restores),
             s.restores > 0 ? Table::num(s.last_pause_ms, 3) : "-",
             s.restores > 0
                 ? std::to_string(s.last_stats.tail_frames)
                 : "-",
             s.restores > 0 ? (s.last_stats.digest_verified ? "yes" : "NO")
                            : "-"});
  }
  std::printf("\n");
  per.print();
  std::printf("\n");

  for (const auto* rr : {&baseline, &failover}) {
    const char* run = rr == &baseline ? "baseline" : "failover";
    for (int i = 0; i < kShards; ++i)
      out.add_raw("shards",
                  shard_point_json(run, i, rr->shards[static_cast<size_t>(i)]));
    out.add_raw("slo", slo_point_json(run, *rr));
  }

  Table slo("Fleet SLO verdict (per observation window)");
  slo.header({"run", "windows", "breaches", "verdict"});
  for (const auto* rr : {&baseline, &failover})
    slo.row({rr == &baseline ? "baseline" : "failover",
             std::to_string(rr->slo_evaluations),
             std::to_string(rr->slo_breaches.size()),
             rr->slo_breaches.empty() ? "held" : "BREACHED"});
  slo.print();
  std::printf("\n");

  // ---- guards --------------------------------------------------------
  const auto& crashed = failover.shards[1];
  const int players = crash_cfg.players;

  if (baseline.connected != players)
    fail("FAIL: baseline lost clients (%d/%d connected)\n", baseline.connected,
         players);
  if (failover.connected != players || failover.shard_connected != players)
    fail("FAIL: clients lost through the crash (%d driver-side, %d "
         "registry-side, want %d)\n",
         failover.connected, failover.shard_connected, players);
  else
    std::printf("zero-client-loss guard held: %d/%d clients live\n",
                failover.connected, players);

  if (failover.silence_reconnects != 0)
    fail("FAIL: %" PRIu64
         " clients needed the silence-reconnect backstop instead of "
         "in-place resume\n",
         failover.silence_reconnects);

  if (crashed.restores != 1 || crashed.state != shard::ShardState::kHealthy ||
      crashed.last_error != recovery::LoadError::kNone)
    fail("FAIL: crashed shard not cleanly restored (restores=%d state=%s)\n",
         crashed.restores, shard::shard_state_name(crashed.state));
  const bool used_tail = crashed.last_mode == shard::RestoreMode::kTailReplay;
  if (!used_tail || !crashed.last_stats.digest_verified)
    fail("FAIL: restore skipped the journal tail or digest verification "
         "(used_tail=%d verified=%d)\n",
         used_tail ? 1 : 0,
         crashed.last_stats.digest_verified ? 1 : 0);
  else
    std::printf("restore replayed %" PRIu64
                " tail frames to the failure frame, digest-verified\n",
                static_cast<uint64_t>(crashed.last_stats.tail_frames));

  if (crashed.restores == 1 && crashed.last_pause_ms >= kMaxPauseMs)
    fail("FAIL: recovery pause %.3f ms breaches the %.1f ms budget\n",
         crashed.last_pause_ms, kMaxPauseMs);
  else if (crashed.restores == 1)
    std::printf("recovery pause budget (< %.1f ms) held: %.3f ms\n",
                kMaxPauseMs, crashed.last_pause_ms);

  // Blast radius: unaffected shards replayed bit-identically.
  for (int i = 0; i < kShards; ++i) {
    if (i == 1) continue;
    const auto& a = baseline.shards[static_cast<size_t>(i)].journal_digests;
    const auto& b = failover.shards[static_cast<size_t>(i)].journal_digests;
    if (a.empty() || a.size() != b.size()) {
      fail("FAIL: shard %d digest streams differ in length (%zu vs %zu)\n", i,
           a.size(), b.size());
      continue;
    }
    size_t mismatches = 0;
    for (size_t k = 0; k < a.size(); ++k)
      if (a[k] != b[k]) ++mismatches;
    if (mismatches > 0)
      fail("FAIL: shard %d diverged from baseline in %zu/%zu journal "
           "frames\n",
           i, mismatches, a.size());
  }
  if (!failed)
    std::printf(
        "fault isolation held: unaffected shards bit-identical to baseline "
        "across %zu journal frames each\n",
        baseline.shards[0].journal_digests.size());

  // Fleet SLOs: every observation window in both runs must hold — the
  // crash, recovery and resume all fit inside the declared budgets.
  for (const auto* rr : {&baseline, &failover}) {
    const char* run = rr == &baseline ? "baseline" : "failover";
    for (const obs::SloBreach& b : rr->slo_breaches)
      fail("FAIL: %s run breached SLO %s (%s %s=%.3f vs bound %.3f at "
           "t=%.1fs)\n",
           run, b.slo.c_str(), b.scope.c_str(), b.metric.c_str(), b.observed,
           b.bound, b.t_seconds);
    if (rr->slo_breaches.empty() && rr->slo_evaluations > 0)
      std::printf("%s run held all fleet SLOs across %" PRIu64
                  " observation windows\n",
                  run, rr->slo_evaluations);
  }

  // ---- SLO canary: the monitor must catch a real breach --------------
  // One shard on one thread at 4x its capacity anchor cannot hold the
  // 12.5 ms frame budget; if the monitor stays quiet here it is not
  // observing anything.
  {
    harness::ShardExperimentConfig ocfg;
    ocfg.fleet.shards = 1;
    ocfg.fleet.server.threads = 1;
    ocfg.fleet.server.lock_policy = core::LockPolicy::kConservative;
    ocfg.players = 4 * kPlayersPerShard;
    ocfg.warmup = vt::seconds(1);
    ocfg.measure = vt::seconds(2);
    ocfg.seed = 42;
    obs::FleetObs::Config canary_cfg;
    canary_cfg.slos = {obs::SloSpec{.name = "frame_p99",
                                    .metric = "server.frame_duration_ms",
                                    .stat = obs::SloSpec::Stat::kP99,
                                    .bound = 12.5,
                                    .min_count = 20}};
    obs::FleetObs canary_obs(nullptr, canary_cfg);
    ocfg.fleet_obs = &canary_obs;
    std::printf("\nrunning SLO canary (1 shard, 1 thread, %d players)...\n",
                ocfg.players);
    std::fflush(stdout);
    const auto overload = harness::run_shard_experiment(ocfg);
    out.add_raw("slo", slo_point_json("overload-canary", overload));
    bool caught = false;
    for (const obs::SloBreach& b : overload.slo_breaches)
      if (b.slo == "frame_p99") caught = true;
    if (!caught)
      fail("FAIL: SLO monitor missed the injected frame-budget breach "
           "(%zu breaches recorded)\n",
           overload.slo_breaches.size());
    else
      std::printf(
          "SLO canary: frame-p99 breach detected as expected (%.3f ms "
          "observed vs 12.5 ms budget)\n",
          overload.slo_breaches.front().observed);
  }

  // ---- --trace: merged multi-shard causal trace ----------------------
  // A third run with handoffs enabled (default boundary margin, so bots
  // roaming across slab boundaries migrate between engines) and shard 1
  // crashed mid-measure. The export holds every shard as its own Chrome
  // process, flow arrows stitching each migration, and the supervisor's
  // quarantine -> restore instants on shard 1's track.
  if (!out.options().trace_path.empty()) {
    auto tcfg = fleet_config();
    tcfg.fleet.boundary_margin = 24.0f;  // re-enable cross-shard handoff
    tcfg.warmup = vt::seconds(1);
    tcfg.measure = vt::seconds(3);
    const vt::Duration tcrash = tcfg.warmup + vt::Duration{tcfg.measure.ns / 2};
    tcfg.schedule_faults = [tcrash](vt::Platform& p,
                                    shard::ShardManager& mgr) {
      p.call_after(tcrash, [&mgr] { mgr.crash_shard(1); });
    };
    obs::Tracer tracer;  // bound to the run's platform by FleetObs::attach
    obs::FleetObs trace_obs(&tracer, obs_cfg);
    tcfg.fleet_obs = &trace_obs;
    std::printf("\ncapturing merged fleet trace (handoffs on, shard 1 "
                "crashed at t=%.1fs)...\n",
                static_cast<double>(tcrash.ns) / 1e9);
    std::fflush(stdout);
    const auto traced = harness::run_shard_experiment(tcfg);
    if (traced.handoff_flows == 0)
      fail("FAIL: trace run produced no session-handoff flows\n");
    if (traced.shards[1].restores != 1)
      fail("FAIL: trace run's crashed shard was not restored (restores=%d)\n",
           traced.shards[1].restores);
    if (tracer.write_chrome_trace(out.options().trace_path)) {
      std::printf(
          "wrote %llu spans across %d tracks (%d shard processes) with "
          "%" PRIu64
          " handoff flows to %s\n  (open in chrome://tracing or "
          "https://ui.perfetto.dev — shard 1's supervisor track carries "
          "the quarantine/restore instants)\n",
          static_cast<unsigned long long>(tracer.total_recorded()),
          tracer.track_count(), kShards, traced.handoff_flows,
          out.options().trace_path.c_str());
    } else {
      fail("FAIL: could not write trace to %s\n",
           out.options().trace_path.c_str());
    }
  }

  const int rc = out.finish();
  return failed ? 1 : rc;
}
