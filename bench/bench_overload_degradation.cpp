// Overload protection & self-healing: what does the resilience subsystem
// buy at and past the capacity knee?
//
// Part 1 — load vs response under overload. The paper's 4-thread
// conservative server saturates around 144 players (§4.2 / Fig. 5); in
// this testbed the knee sits a little higher (~200), so we use a
// 160-player capacity anchor and drive the server at 1x, 1.5x and 2x
// with the resilience subsystem off vs on (governor + admission control
// + move-rate limit).
// The metric is the client-side response fraction: replies received per
// move sent. Off, past saturation the frame loop falls behind its
// clients, receive queues overflow, and the fraction collapses; on, the
// governor degrades fidelity (far-entity thinning, move coalescing,
// shedding, last-resort eviction) and admission control bounds the
// admitted population, holding the fraction of offered load answered
// above a governed floor.
//
// Part 2 — stall recovery. A worker wedged for a full second mid-run
// (FaultScheduler kThreadStall) must be detected by the watchdog within
// its timeout, its clients migrated to live workers, and the worker
// re-admitted when it wakes — with zero clients lost.
//
// Exit code: non-zero if the governed floor or the stall-recovery
// acceptance fails (CI runs this as a smoke check).
#include <cinttypes>

#include "bench_common.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/net/fault_scheduler.hpp"

using namespace qserv;
using namespace qserv::harness;

namespace {

constexpr int kCapacityPlayers = 160;  // 1x anchor for the 4-thread server
constexpr double kGovernedFloor = 0.70;   // ON response fraction at 2x
constexpr double kCollapseCeiling = 0.40; // OFF response fraction at 2x

ExperimentConfig base_config(int players) {
  auto cfg = paper_config(ServerMode::kParallel, 4, players,
                          core::LockPolicy::kConservative);
  bench::apply_windows(cfg);
  return cfg;
}

void enable_resilience(core::ServerConfig& scfg) {
  auto& r = scfg.resilience;
  r.governor = true;
  r.tick_budget = vt::millis(33);
  r.window = 16;
  r.dwell = 8;
  r.admission_control = true;
  r.move_rate_limit = 45.0;  // honest 30 fps clients stay well under
  r.move_burst = 15.0;
}

double response_fraction(const ExperimentResult& r) {
  return r.client_moves_sent > 0
             ? static_cast<double>(r.client_replies) /
                   static_cast<double>(r.client_moves_sent)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOutput out("overload_degradation", argc, argv);
  bench::print_header(
      "Overload protection — response under load, governor off vs on",
      "robustness extension (the §5.2 saturation cliff, governed)");

  // ---- Part 1: load ramp, governor off vs on ------------------------
  const std::vector<double> loads{1.0, 1.5, 2.0};
  bool failed = false;

  Table ramp("Response under overload (4 threads, conservative locking)");
  ramp.header({"load", "players", "resilience", "replies/s", "resp frac",
               "max rung", "coalesced", "shed", "busy-rejects"});
  double frac_off_2x = 0.0, frac_on_2x = 0.0;
  for (const double load : loads) {
    const int players = static_cast<int>(kCapacityPlayers * load);
    for (const bool on : {false, true}) {
      auto cfg = base_config(players);
      if (on) enable_resilience(cfg.server);
      const auto r = run_experiment(cfg);
      const double frac = response_fraction(r);
      if (load == 2.0) (on ? frac_on_2x : frac_off_2x) = frac;
      const std::string label = std::to_string(players) + "p/" +
                                (on ? "governed" : "baseline");
      out.add("ramp", label, cfg, r);
      ramp.row({Table::num(load, 1) + "x", std::to_string(players),
                on ? "governed" : "off", Table::num(r.response_rate, 0),
                Table::num(frac, 2),
                resilience::degrade_level_name(r.max_degrade_level),
                std::to_string(r.moves_coalesced),
                std::to_string(r.governor_evictions),
                std::to_string(r.rejected_busy)});
    }
  }
  std::printf("\n");
  ramp.print();

  std::printf(
      "\nresponse fraction at 2.0x capacity: baseline %.2f, governed %.2f\n",
      frac_off_2x, frac_on_2x);
  if (frac_on_2x < kGovernedFloor) {
    std::fprintf(stderr,
                 "FAIL: governed response fraction %.2f at 2x capacity is "
                 "below the %.2f floor\n",
                 frac_on_2x, kGovernedFloor);
    failed = true;
  } else {
    std::printf("governed floor (>= %.2f) held\n", kGovernedFloor);
  }
  if (frac_off_2x >= kCollapseCeiling) {
    std::printf(
        "note: baseline fraction %.2f did not collapse below %.2f — the "
        "overload margin may need recalibrating\n",
        frac_off_2x, kCollapseCeiling);
  }

  // ---- Part 2: worker stall detection and recovery ------------------
  auto stall_cfg = base_config(64);
  stall_cfg.server.resilience.watchdog_timeout = vt::millis(250);
  stall_cfg.server.check_invariants = true;
  // Wedge worker 2 for a full second, one second into measurement.
  const vt::TimePoint stall_at =
      vt::TimePoint::zero() + stall_cfg.warmup + vt::seconds(1);
  stall_cfg.configure_network = [stall_at](net::VirtualNetwork& net) {
    net.faults().add_thread_stall(stall_at, vt::seconds(1), 2);
  };
  const auto rs = run_experiment(stall_cfg);
  out.add("stall", "stall-recovery", stall_cfg, rs);

  Table stall("Worker stall recovery (watchdog timeout 250 ms)");
  stall.header({"metric", "value"});
  stall.row({"stalls injected", std::to_string(rs.stalls_injected)});
  stall.row({"stalls detected", std::to_string(rs.stalls_detected)});
  stall.row({"stalls recovered", std::to_string(rs.stalls_recovered)});
  stall.row({"clients migrated", std::to_string(rs.stall_reassignments)});
  stall.row({"clients connected at end",
             std::to_string(rs.connected) + " / 64"});
  stall.row({"evictions", std::to_string(rs.evictions)});
  stall.row({"replies/s through the stall", Table::num(rs.response_rate, 0)});
  std::printf("\n");
  stall.print();

  const bool stall_ok = rs.stalls_injected >= 1 && rs.stalls_detected >= 1 &&
                        rs.stalls_recovered >= 1 &&
                        rs.stall_reassignments >= 1 && rs.connected == 64 &&
                        rs.evictions == 0 && rs.invariant_violations == 0;
  if (!stall_ok) {
    std::fprintf(stderr,
                 "FAIL: stall recovery acceptance not met (injected=%" PRIu64
                 " detected=%" PRIu64 " recovered=%" PRIu64
                 " migrated=%" PRIu64 " connected=%d evictions=%" PRIu64
                 " violations=%" PRIu64 ")\n",
                 rs.stalls_injected, rs.stalls_detected, rs.stalls_recovered,
                 rs.stall_reassignments, rs.connected, rs.evictions,
                 rs.invariant_violations);
    failed = true;
  } else {
    std::printf(
        "\nstall detected and recovered within the run; zero clients lost\n");
  }

  // Representative timeline: the governed server at 2x capacity.
  {
    auto traced = base_config(kCapacityPlayers * 2);
    enable_resilience(traced.server);
    out.capture_trace(traced);
  }
  const int rc = out.finish();
  return failed ? 1 : rc;
}
