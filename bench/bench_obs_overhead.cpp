// Observability overhead: what does the event tracer cost?
//
// Two measurements:
//  1. Micro: host-clock cost of one TraceScope span — tracer absent
//     (null pointer), present-but-disabled (the one-branch hot path),
//     and enabled (timestamping + a ring-slot store).
//  2. Macro: a full 4-thread/128-player experiment with observability off
//     vs fully on (tracer + metrics registry). Because tracing charges no
//     modelled compute, the virtual-time results must be bit-identical;
//     the honest cost is host wall time, reported as a ratio.
//
//  3. Fleet: a 4-shard failover-shaped fleet with the observability
//     plane absent vs fully attached (FleetObs: tracer, per-shard
//     metrics registries, SLO windows every 500 ms). Same bar: the
//     virtual-time results must be bit-identical, the honest cost is
//     host wall time.
//
// The acceptance bar: enabled tracing under ~5% host overhead on the
// macro run, disabled tracing indistinguishable from no tracer at all,
// and span costs inside the envelope measured when the tracer landed
// (~0.3 ns disabled / ~6.5 ns enabled; gated with generous caps so a
// loaded CI box does not flake).
#include <chrono>
#include <cinttypes>

#include "bench_common.hpp"
#include "src/harness/shard_experiment.hpp"
#include "src/obs/fleet.hpp"
#include "src/obs/metrics.hpp"
#include "src/vthread/sim_platform.hpp"

using namespace qserv;
using namespace qserv::harness;

namespace {

volatile uint64_t g_sink = 0;

// Cost per iteration (host ns) of `body` over `iters` runs.
template <typename F>
double time_per_iter_ns(uint64_t iters, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

double min_host_seconds(const ExperimentConfig& cfg, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double s = run_experiment(cfg).host_seconds;
    if (i == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOutput out("obs_overhead", argc, argv);
  bench::print_header("Observability overhead — event tracer cost on/off",
                      "measurement-methodology validation (§4)");

  // ---- 1. Micro: per-span cost --------------------------------------
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  const int track = tracer.make_track("micro");
  constexpr uint64_t kIters = 1 << 21;

  const double base_ns = time_per_iter_ns(kIters, [] { g_sink = g_sink + 1; });
  const double null_ns = time_per_iter_ns(kIters, [&] {
    obs::TraceScope s(nullptr, 0, "span");
    g_sink = g_sink + 1;
  });
  tracer.set_enabled(false);
  const double off_ns = time_per_iter_ns(kIters, [&] {
    obs::TraceScope s(&tracer, track, "span");
    g_sink = g_sink + 1;
  });
  tracer.set_enabled(true);
  const double on_ns = time_per_iter_ns(kIters, [&] {
    obs::TraceScope s(&tracer, track, "span");
    g_sink = g_sink + 1;
  });

  Table micro("Per-span cost (host ns, loop baseline subtracted)");
  micro.header({"case", "ns/span"});
  micro.row({"no tracer (null)", Table::num(null_ns - base_ns, 1)});
  micro.row({"tracer disabled", Table::num(off_ns - base_ns, 1)});
  micro.row({"tracer enabled", Table::num(on_ns - base_ns, 1)});
  micro.print();
  std::printf("(%" PRIu64 " spans recorded into the micro ring)\n\n",
              tracer.total_recorded());

  // ---- 2. Macro: full experiment off vs on --------------------------
  auto cfg = paper_config(ServerMode::kParallel, 4, 128,
                          core::LockPolicy::kConservative);
  bench::apply_windows(cfg);
  const int reps = 2;

  const double off_s = min_host_seconds(cfg, reps);
  const auto r_off = run_experiment(cfg);

  ExperimentConfig traced = cfg;
  obs::Tracer run_tracer;  // bound inside run_experiment
  obs::MetricsRegistry metrics;
  traced.tracer = &run_tracer;
  traced.metrics = &metrics;
  const double on_s = min_host_seconds(traced, reps);
  const auto r_on = run_experiment(traced);

  out.add("macro", "obs-off", cfg, r_off);
  out.add("macro", "obs-on", traced, r_on);

  // Game-visible outputs must match exactly. (sim_events is left out: it
  // counts scheduler bookkeeping, not anything a player sees.)
  const bool identical = r_off.frames == r_on.frames &&
                         r_off.replies == r_on.replies &&
                         r_off.requests == r_on.requests &&
                         r_off.response_rate == r_on.response_rate &&
                         r_off.response_ms_mean == r_on.response_ms_mean;
  const double overhead = off_s > 0 ? on_s / off_s - 1.0 : 0.0;

  Table macro("Full experiment, 4 threads / 128 players");
  macro.header({"observability", "host s (best of reps)", "frames",
                "replies/s", "spans", "metrics"});
  macro.row({"off", Table::num(off_s, 2), std::to_string(r_off.frames),
             Table::num(r_off.response_rate, 0), "--", "--"});
  macro.row({"tracer + metrics", Table::num(on_s, 2),
             std::to_string(r_on.frames), Table::num(r_on.response_rate, 0),
             std::to_string(run_tracer.total_recorded()),
             std::to_string(metrics.size())});
  std::printf("\n");
  macro.print();

  std::printf("\nvirtual-time results identical on/off: %s\n",
              identical ? "yes" : "NO — tracer perturbed the simulation!");
  std::printf("host overhead with full observability: %+.1f%% %s\n", overhead * 100,
              overhead < 0.05 ? "(within the 5% budget)"
                              : "(OVER the 5% budget)");

  {
    std::string point;
    obs::JsonWriter w(point);
    w.begin_object();
    w.kv("label", "tracer-cost");
    w.kv("span_ns_null", null_ns - base_ns);
    w.kv("span_ns_disabled", off_ns - base_ns);
    w.kv("span_ns_enabled", on_ns - base_ns);
    w.kv("macro_host_s_off", off_s);
    w.kv("macro_host_s_on", on_s);
    w.kv("macro_overhead", overhead);
    w.kv("virtual_time_identical", identical);
    w.end_object();
    out.add_raw("micro", std::move(point));
  }

  // ---- 3. Fleet: 4-shard macro, plane off vs on ---------------------
  auto fleet_cfg = [] {
    harness::ShardExperimentConfig c;
    c.fleet.shards = 4;
    c.fleet.server.threads = 4;
    c.fleet.server.lock_policy = core::LockPolicy::kConservative;
    c.players = 4 * 128;
    c.warmup = vt::seconds_d(bench::env_seconds("QSERV_WARMUP_SECONDS", 2.0));
    c.measure = vt::seconds_d(bench::env_seconds("QSERV_MEASURE_SECONDS", 8.0));
    c.seed = 7;
    c.machine.cores = 16;
    c.machine.ht_per_core = 2;
    return c;
  };

  auto fleet_off_cfg = fleet_cfg();
  const auto f_off = harness::run_shard_experiment(fleet_off_cfg);

  auto fleet_on_cfg = fleet_cfg();
  obs::Tracer fleet_tracer;  // bound by FleetObs::attach
  obs::FleetObs::Config fleet_obs_cfg;
  fleet_obs_cfg.expected_clients = fleet_on_cfg.players;
  obs::FleetObs fleet_obs(&fleet_tracer, fleet_obs_cfg);
  fleet_on_cfg.fleet_obs = &fleet_obs;
  const auto f_on = harness::run_shard_experiment(fleet_on_cfg);

  // The plane (tracer spans, flow stitching, metrics, SLO windows)
  // charges no modelled compute, so every game-visible output — per-shard
  // frame counts included — must be bit-identical with it attached.
  bool fleet_identical = f_off.connected == f_on.connected &&
                         f_off.client_replies == f_on.client_replies &&
                         f_off.response_rate == f_on.response_rate &&
                         f_off.handoffs_out == f_on.handoffs_out;
  for (size_t i = 0; i < f_off.shards.size(); ++i)
    fleet_identical = fleet_identical &&
                      f_off.shards[i].frames == f_on.shards[i].frames;
  const double fleet_overhead =
      f_off.host_seconds > 0 ? f_on.host_seconds / f_off.host_seconds - 1.0
                             : 0.0;

  Table fleet("4-shard fleet (4x4 threads, 512 players)");
  fleet.header({"observability", "host s", "replies/s", "handoffs", "spans",
                "slo windows"});
  fleet.row({"off", Table::num(f_off.host_seconds, 2),
             Table::num(f_off.response_rate, 0),
             std::to_string(f_off.handoffs_out), "--", "--"});
  fleet.row({"fleet plane", Table::num(f_on.host_seconds, 2),
             Table::num(f_on.response_rate, 0),
             std::to_string(f_on.handoffs_out),
             std::to_string(fleet_tracer.total_recorded()),
             std::to_string(f_on.slo_evaluations)});
  std::printf("\n");
  fleet.print();
  std::printf("\nfleet virtual-time results identical on/off: %s\n",
              fleet_identical ? "yes"
                              : "NO — the plane perturbed the simulation!");
  std::printf("fleet host overhead with the full plane: %+.1f%%\n",
              fleet_overhead * 100);

  {
    std::string point;
    obs::JsonWriter w(point);
    w.begin_object();
    w.kv("label", "fleet-plane");
    w.kv("host_s_off", f_off.host_seconds);
    w.kv("host_s_on", f_on.host_seconds);
    w.kv("overhead", fleet_overhead);
    w.kv("spans", fleet_tracer.total_recorded());
    w.kv("handoff_flows", f_on.handoff_flows);
    w.kv("slo_evaluations", f_on.slo_evaluations);
    w.kv("virtual_time_identical", fleet_identical);
    w.end_object();
    out.add_raw("fleet", std::move(point));
  }

  out.capture_trace(cfg);

  // Envelope guards. The identity checks are exact; the span-cost caps
  // are an order of magnitude above the measured envelope, catching a
  // hot-path pessimization without flaking on machine noise.
  bool guards_ok = true;
  if (!identical || !fleet_identical) guards_ok = false;
  if (off_ns - base_ns > 5.0) {
    std::fprintf(stderr,
                 "FAIL: disabled-tracer span cost %.1f ns/span breaches the "
                 "5 ns cap (envelope ~0.3 ns)\n",
                 off_ns - base_ns);
    guards_ok = false;
  }
  if (on_ns - base_ns > 60.0) {
    std::fprintf(stderr,
                 "FAIL: enabled-tracer span cost %.1f ns/span breaches the "
                 "60 ns cap (envelope ~6.5 ns)\n",
                 on_ns - base_ns);
    guards_ok = false;
  }
  if (!guards_ok) return 1;
  return out.finish();
}
