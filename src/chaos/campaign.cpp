#include "src/chaos/campaign.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/net/fault_scheduler.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/obs/fleet.hpp"
#include "src/shard/manager.hpp"

namespace qserv::chaos {

namespace {

constexpr vt::TimePoint t0 = vt::TimePoint::zero();
// State-dependent crash hooks poll fleet state at this virtual cadence —
// well under a 25 ms frame, so "while the mailbox is non-empty" and
// "right after a restore" trigger inside the window they describe.
constexpr vt::Duration kPollPeriod = vt::millis(5);

// Client traffic originates from this port range (driver convention).
constexpr uint16_t kClientPortLo = 40000;
constexpr uint16_t kClientPortHi = 65535;

struct EnginePorts {
  uint16_t lo = 0, hi = 0;
};

EnginePorts engine_ports(const shard::Config& fleet, int shard) {
  const uint16_t lo = static_cast<uint16_t>(fleet.server.base_port +
                                            shard * shard::kPortStride);
  return {lo, static_cast<uint16_t>(lo + fleet.server.threads - 1)};
}

// Self-rescheduling virtual-time poll, bounded by the run end so the
// simulated platform's event queue drains. `body` returns true when the
// hook has fired (or can never fire) and polling should stop. Only the
// pending timer owns the poll; the poll holds itself weakly, so it is
// freed once it stops re-arming.
void arm_poll(vt::Platform& p, vt::Duration first, int64_t end_ns,
              std::function<bool()> body) {
  auto fn = std::make_shared<std::function<void()>>();
  vt::Platform* pp = &p;
  *fn = [pp, end_ns, body = std::move(body),
         self = std::weak_ptr<std::function<void()>>(fn)] {
    if (pp->now().ns >= end_ns) return;
    if (body()) return;
    pp->call_after(kPollPeriod, [fn = self.lock()] { (*fn)(); });
  };
  p.call_after(first, [fn] { (*fn)(); });
}

// Installs the scenario's steps into the cloned config: network episodes
// onto the FaultScheduler timeline, engine faults and state-dependent
// crash hooks onto the platform timer, both composing with (after) any
// callbacks the base config already carried.
void install_steps(const Scenario& s, harness::ShardExperimentConfig& cfg) {
  std::vector<FaultStep> net_steps, live_steps;
  for (const FaultStep& st : s.steps) {
    switch (st.kind) {
      case FaultStep::Kind::kStallWorker:
      case FaultStep::Kind::kLossBurst:
      case FaultStep::Kind::kLatencySpike:
      case FaultStep::Kind::kPartitionClients:
        net_steps.push_back(st);
        break;
      default:
        live_steps.push_back(st);
        break;
    }
  }

  if (!net_steps.empty()) {
    // Port geometry is resolved now (post-tweak) and captured by value:
    // the callback outlives this frame.
    const shard::Config fleet = cfg.fleet;
    auto prev = cfg.configure_network;
    cfg.configure_network = [prev, net_steps,
                             fleet](net::VirtualNetwork& net) {
      if (prev) prev(net);
      for (const FaultStep& st : net_steps) {
        const EnginePorts ep = engine_ports(fleet, st.shard);
        switch (st.kind) {
          case FaultStep::Kind::kStallWorker:
            // Scoped to this shard's engine: neighbors sharing the
            // network keep their workers.
            net.faults().add_thread_stall(t0 + st.at, st.dur, st.thread,
                                          ep.lo, ep.hi);
            break;
          case FaultStep::Kind::kLossBurst:
            net.faults().add_loss_burst(t0 + st.at, st.dur, st.loss);
            break;
          case FaultStep::Kind::kLatencySpike:
            net.faults().add_latency_spike(t0 + st.at, st.dur,
                                           st.extra_latency);
            break;
          case FaultStep::Kind::kPartitionClients:
            net.faults().add_partition(t0 + st.at, st.dur, kClientPortLo,
                                       kClientPortHi, ep.lo, ep.hi);
            break;
          default:
            break;
        }
      }
    };
  }

  if (!live_steps.empty()) {
    const int64_t end_ns = (cfg.warmup + cfg.measure).ns;
    auto prev = cfg.schedule_faults;
    cfg.schedule_faults = [prev, live_steps, end_ns](
                              vt::Platform& p, shard::ShardManager& mgr) {
      if (prev) prev(p, mgr);
      shard::ShardManager* pm = &mgr;
      for (const FaultStep& st : live_steps) {
        const int sh = st.shard;
        switch (st.kind) {
          case FaultStep::Kind::kCrashShard:
            p.call_after(st.at, [pm, sh] {
              if (!pm->shard(sh).down()) pm->crash_shard(sh);
            });
            break;
          case FaultStep::Kind::kCorruptCheckpoint:
            p.call_after(st.at,
                         [pm, sh] { pm->shard(sh).corrupt_next_capture(); });
            break;
          case FaultStep::Kind::kCrashWhenMailboxBusy:
            arm_poll(p, st.at, end_ns, [pm, sh]() -> bool {
              if (pm->shard(sh).down()) return true;
              if (pm->shard(sh).crash_flagged()) return false;  // recovering
              if (pm->shard(sh).mailbox().empty()) return false;
              pm->crash_shard(sh);
              return true;
            });
            break;
          case FaultStep::Kind::kCrashOnRestore: {
            auto remaining = std::make_shared<int>(st.count);
            auto seen = std::make_shared<int>(pm->shard(sh).restores());
            arm_poll(p, st.at, end_ns, [pm, sh, remaining, seen]() -> bool {
              if (*remaining <= 0 || pm->shard(sh).down()) return true;
              const int r = pm->shard(sh).restores();
              if (r > *seen && !pm->shard(sh).crash_flagged()) {
                *seen = r;
                pm->crash_shard(sh);
                --*remaining;
                return *remaining <= 0;
              }
              return false;
            });
            break;
          }
          default:
            break;
        }
      }
    };
  }
}

bool contains(const std::vector<std::string>& v, const char* s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

std::string shard_msg(const char* what, int shard, std::string detail) {
  return std::string(what) + " (shard " + std::to_string(shard) + "): " +
         std::move(detail);
}

Verdict evaluate(const Scenario& s, const harness::ShardExperimentResult& r,
                 const harness::ShardExperimentResult& base,
                 const harness::ShardExperimentConfig& cfg,
                 uint64_t& digest_frames) {
  Verdict v;
  auto fail = [&](std::string m) { v.failures.push_back(std::move(m)); };

  // Universal guard: zero lost clients at the end of every scenario.
  if (r.connected != cfg.players)
    fail("lost clients: " + std::to_string(r.connected) + "/" +
         std::to_string(cfg.players) + " connected at end");

  // Universal guard: the cross-structure invariant audit stayed clean.
  uint64_t escalations = 0;
  for (size_t i = 0; i < r.shards.size(); ++i) {
    const auto& ps = r.shards[i];
    escalations += ps.escalations;
    if (!ps.down && ps.invariant_violations != 0)
      fail(shard_msg("invariant violations", static_cast<int>(i),
                     std::to_string(ps.invariant_violations)));
  }

  // Escalation expectation (a client-side fault misread as engine
  // failure is a detection bug, not chaos).
  if (s.expect_escalation && escalations == 0)
    fail("expected a supervisor escalation; none occurred");
  if (!s.expect_escalation && escalations != 0)
    fail("false-positive escalation: supervisor escalated " +
         std::to_string(escalations) + " time(s) on a client-side fault");

  // Shed expectations: exactly the declared shard (if any), for the
  // declared reason.
  for (size_t i = 0; i < r.shards.size(); ++i) {
    if (r.shards[i].state == shard::ShardState::kShed &&
        static_cast<int>(i) != s.expect_shed)
      fail(shard_msg("unexpected shed", static_cast<int>(i),
                     shard::shed_reason_name(r.shards[i].shed_reason)));
  }
  if (s.expect_shed >= 0) {
    const auto& ps = r.shards[static_cast<size_t>(s.expect_shed)];
    if (ps.state != shard::ShardState::kShed) {
      fail(shard_msg("expected shed did not happen", s.expect_shed,
                     shard::shard_state_name(ps.state)));
    } else if (s.expect_shed_reason != shard::ShedReason::kNone &&
               ps.shed_reason != s.expect_shed_reason) {
      fail(shard_msg("wrong shed reason", s.expect_shed,
                     std::string(shard::shed_reason_name(ps.shed_reason)) +
                         " != " +
                         shard::shed_reason_name(s.expect_shed_reason)));
    }
  }

  // Restore expectations.
  for (int i : s.expect_restored) {
    const auto& ps = r.shards[static_cast<size_t>(i)];
    if (ps.down || ps.state != shard::ShardState::kHealthy ||
        ps.restores < 1)
      fail(shard_msg("not restored to health", i,
                     std::string(shard::shard_state_name(ps.state)) +
                         ", restores=" + std::to_string(ps.restores)));
  }
  if (s.expect_mode != nullptr && s.mode_shard >= 0) {
    const auto& ps = r.shards[static_cast<size_t>(s.mode_shard)];
    if (std::string(shard::restore_mode_name(ps.last_mode)) != s.expect_mode)
      fail(shard_msg("wrong restore mode", s.mode_shard,
                     std::string(shard::restore_mode_name(ps.last_mode)) +
                         " != " + s.expect_mode));
  }
  if (s.expect_error != nullptr && s.mode_shard >= 0) {
    const auto& ps = r.shards[static_cast<size_t>(s.mode_shard)];
    if (std::string(recovery::load_error_name(ps.last_error)) !=
        s.expect_error)
      fail(shard_msg("wrong load error", s.mode_shard,
                     std::string(recovery::load_error_name(ps.last_error)) +
                         " != " + s.expect_error));
  }

  // Containment accounting.
  if (r.handoffs_returned < s.expect_returns_min)
    fail("expected >= " + std::to_string(s.expect_returns_min) +
         " stranded-handoff returns, saw " +
         std::to_string(r.handoffs_returned));
  if (!s.allow_reconnects && r.silence_reconnects != 0)
    fail(std::to_string(r.silence_reconnects) +
         " silence reconnects (in-place resume expected)");

  // SLO monitor verdicts: every breach must be declared.
  for (const obs::SloBreach& b : r.slo_breaches) {
    if (contains(s.allow_slos, b.slo.c_str())) {
      v.degraded = true;
      if (!contains(v.allowed_breaches, b.slo.c_str()))
        v.allowed_breaches.push_back(b.slo);
    } else {
      fail("undeclared SLO breach: " + b.slo + " (" + b.scope + " " +
           b.metric + "=" + std::to_string(b.observed) + " vs " +
           std::to_string(b.bound) + ")");
    }
  }

  // Blast radius: unaffected shards replay bit-identically to baseline.
  digest_frames = 0;
  for (int i : s.digest_shards) {
    const auto& a = base.shards[static_cast<size_t>(i)].journal_digests;
    const auto& b = r.shards[static_cast<size_t>(i)].journal_digests;
    if (a.empty() || a.size() != b.size()) {
      fail(shard_msg("digest streams differ in length", i,
                     std::to_string(a.size()) + " vs " +
                         std::to_string(b.size())));
      continue;
    }
    size_t mismatches = 0;
    for (size_t k = 0; k < a.size(); ++k)
      if (a[k] != b[k]) ++mismatches;
    if (mismatches > 0)
      fail(shard_msg("digest divergence from baseline", i,
                     std::to_string(mismatches) + "/" +
                         std::to_string(a.size()) + " frames"));
    digest_frames += a.size();
  }

  if (s.extra) s.extra(r, v.failures);
  v.pass = v.failures.empty();
  return v;
}

}  // namespace

const char* fault_kind_name(FaultStep::Kind k) {
  switch (k) {
    case FaultStep::Kind::kCrashShard: return "crash-shard";
    case FaultStep::Kind::kCorruptCheckpoint: return "corrupt-checkpoint";
    case FaultStep::Kind::kCrashWhenMailboxBusy:
      return "crash-when-mailbox-busy";
    case FaultStep::Kind::kCrashOnRestore: return "crash-on-restore";
    case FaultStep::Kind::kStallWorker: return "stall-worker";
    case FaultStep::Kind::kLossBurst: return "loss-burst";
    case FaultStep::Kind::kLatencySpike: return "latency-spike";
    case FaultStep::Kind::kPartitionClients: return "partition-clients";
  }
  return "?";
}

bool CampaignResult::all_passed() const {
  if (!baseline_ok) return false;
  for (const ScenarioOutcome& o : outcomes)
    if (!o.verdict.pass) return false;
  return true;
}

int CampaignResult::failed_scenarios() const {
  int n = baseline_ok ? 0 : 1;
  for (const ScenarioOutcome& o : outcomes)
    if (!o.verdict.pass) ++n;
  return n;
}

Campaign::Campaign(harness::ShardExperimentConfig base)
    : Campaign(std::move(base), Options()) {}

Campaign::Campaign(harness::ShardExperimentConfig base, Options opt)
    : base_(std::move(base)), opt_(opt) {}

CampaignResult Campaign::run() {
  CampaignResult out;

  // ---- baseline: the base fleet, no faults ---------------------------
  {
    harness::ShardExperimentConfig cfg = base_;
    obs::FleetObs::Config ocfg;
    ocfg.expected_clients = cfg.players;
    obs::FleetObs obs(nullptr, ocfg);
    cfg.fleet_obs = &obs;
    if (opt_.verbose) {
      std::printf("chaos: running no-fault baseline...\n");
      std::fflush(stdout);
    }
    out.baseline = harness::run_shard_experiment(cfg);
    auto bfail = [&](std::string m) {
      out.baseline_failures.push_back(std::move(m));
    };
    if (out.baseline.connected != cfg.players)
      bfail("baseline lost clients: " +
            std::to_string(out.baseline.connected) + "/" +
            std::to_string(cfg.players));
    for (size_t i = 0; i < out.baseline.shards.size(); ++i) {
      const auto& ps = out.baseline.shards[i];
      if (ps.escalations != 0 || ps.down)
        bfail("baseline shard " + std::to_string(i) +
              " escalated or went down with no fault injected");
      if (ps.invariant_violations != 0)
        bfail("baseline shard " + std::to_string(i) +
              " reported invariant violations");
      if (ps.journal_digests.empty())
        bfail("baseline shard " + std::to_string(i) +
              " produced no journal digests (recovery off?)");
    }
    for (const obs::SloBreach& b : out.baseline.slo_breaches)
      bfail("baseline SLO breach: " + b.slo + " (" + b.scope + ")");
    out.baseline_ok = out.baseline_failures.empty();
  }

  // ---- scenarios, each an independent deterministic run --------------
  for (const Scenario& s : scenarios_) {
    harness::ShardExperimentConfig cfg = base_;
    cfg.fleet_obs = nullptr;
    if (s.tweak) s.tweak(cfg);
    install_steps(s, cfg);
    obs::FleetObs::Config ocfg;
    ocfg.expected_clients = cfg.players;
    obs::FleetObs obs(nullptr, ocfg);
    cfg.fleet_obs = &obs;
    if (opt_.verbose) {
      std::printf("chaos: running scenario '%s' (%zu steps)...\n",
                  s.name.c_str(), s.steps.size());
      std::fflush(stdout);
    }
    ScenarioOutcome o;
    o.name = s.name;
    o.description = s.description;
    o.result = harness::run_shard_experiment(cfg);
    o.verdict = evaluate(s, o.result, out.baseline, cfg,
                         o.digest_frames_checked);
    if (opt_.verbose) {
      std::printf("chaos:   verdict: %s%s\n",
                  o.verdict.pass
                      ? (o.verdict.degraded ? "pass (degraded)" : "pass")
                      : "FAIL",
                  o.verdict.pass ? "" : " — see failures");
      for (const std::string& f : o.verdict.failures)
        std::printf("chaos:   FAIL: %s\n", f.c_str());
      std::fflush(stdout);
    }
    out.outcomes.push_back(std::move(o));
  }
  return out;
}

std::vector<Scenario> standard_scenarios(
    const harness::ShardExperimentConfig& base) {
  std::vector<Scenario> out;
  const vt::Duration M = base.measure;
  const vt::Duration early = base.warmup + vt::Duration{M.ns / 4};
  const vt::Duration mid = base.warmup + vt::Duration{M.ns / 2};

  // 1. The reference failure: one crash, tail-replay restore, blast
  // radius confined to the failure domain.
  {
    Scenario s;
    s.name = "single-crash-tail-replay";
    s.description =
        "crash shard 1 mid-measure; digest-verified tail replay, "
        "unaffected shards bit-identical";
    s.steps = {{.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 1}};
    s.digest_shards = {0, 2, 3};
    s.expect_restored = {1};
    s.mode_shard = 1;
    s.expect_mode = "tail-replay";
    out.push_back(std::move(s));
  }

  // 2. Two shards down in the same supervision window: recovery must be
  // staggered (kMaxConcurrentRestores), both come back, the two
  // survivors replay untouched.
  {
    Scenario s;
    s.name = "double-crash-same-window";
    s.description =
        "crash shards 1 and 2 at the same instant; staggered recovery, "
        "both restored";
    s.steps = {{.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 1},
               {.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 2}};
    s.digest_shards = {0, 3};
    s.expect_restored = {1, 2};
    out.push_back(std::move(s));
  }

  // 3. A wedged engine (all workers stalled) must escalate via the stale
  // heartbeat, not hang the fleet; the stalled frame legitimately blows
  // the frame budget — declared, so the verdict is degraded, not failed.
  // All four workers stall because a single wedged worker leaves the
  // others publishing idle beats — by design that is NOT an escalation.
  {
    Scenario s;
    s.name = "worker-stall-heartbeat";
    s.description =
        "wedge every worker of shard 2 for 400 ms; stale-heartbeat "
        "escalation, restore, declared frame-budget breach";
    s.steps = {{.kind = FaultStep::Kind::kStallWorker,
                .at = mid,
                .shard = 2,
                .thread = 0,
                .dur = vt::millis(400)},
               {.kind = FaultStep::Kind::kStallWorker,
                .at = mid,
                .shard = 2,
                .thread = 1,
                .dur = vt::millis(400)},
               {.kind = FaultStep::Kind::kStallWorker,
                .at = mid,
                .shard = 2,
                .thread = 2,
                .dur = vt::millis(400)},
               {.kind = FaultStep::Kind::kStallWorker,
                .at = mid,
                .shard = 2,
                .thread = 3,
                .dur = vt::millis(400)}};
    s.digest_shards = {0, 1, 3};
    s.expect_restored = {2};
    s.allow_slos = {"frame_p99"};
    out.push_back(std::move(s));
  }

  // 4. Crash loop: the shard dies again right after every restore. The
  // circuit breaker must cut it off after crash_loop_max_rebuilds and
  // shed its sessions to the survivors.
  {
    Scenario s;
    s.name = "crash-loop-circuit-breaker";
    s.description =
        "shard 1 re-crashes after every restore; breaker trips after 3 "
        "rebuilds in the window and sheds";
    s.steps = {
        {.kind = FaultStep::Kind::kCrashShard, .at = early, .shard = 1},
        {.kind = FaultStep::Kind::kCrashOnRestore,
         .at = early,
         .shard = 1,
         .count = 10}};
    s.expect_shed = 1;
    s.expect_shed_reason = shard::ShedReason::kCrashLoop;
    s.allow_reconnects = true;
    s.allow_slos = {"lost_clients", "frame_p99", "handoff_p99",
                    "recovery_pause"};
    s.tweak = [](harness::ShardExperimentConfig& cfg) {
      cfg.fleet.max_restores = 10;  // the breaker, not the budget, decides
      cfg.fleet.crash_loop_max_rebuilds = 3;
      cfg.fleet.restore_backoff = vt::millis(1);
      cfg.fleet.restore_backoff_max = vt::millis(4);
    };
    s.extra = [](const harness::ShardExperimentResult& r,
                 std::vector<std::string>& fails) {
      if (!r.shards[1].breaker_tripped)
        fails.push_back("circuit breaker never tripped on shard 1");
      if (r.shards[1].restores != 3)
        fails.push_back("expected exactly 3 rebuilds before the trip, saw " +
                        std::to_string(r.shards[1].restores));
    };
    out.push_back(std::move(s));
  }

  // 5. Corrupted checkpoint image: the content checksum rejects it and
  // the restore falls through the chain to a fresh rebuild; clients
  // re-join via the silence backstop.
  {
    Scenario s;
    s.name = "corrupt-checkpoint-fresh-rebuild";
    s.description =
        "flip a byte in shard 2's captured image, then crash it; "
        "checksum rejects, fresh rebuild, clients re-join";
    s.steps = {{.kind = FaultStep::Kind::kCorruptCheckpoint,
                .at = mid,
                .shard = 2},
               {.kind = FaultStep::Kind::kCrashShard,
                .at = mid + vt::millis(100),
                .shard = 2}};
    s.digest_shards = {0, 1, 3};
    s.expect_restored = {2};
    s.mode_shard = 2;
    s.expect_mode = "fresh-rebuild";
    s.expect_error = "checksum";
    s.allow_reconnects = true;
    s.allow_slos = {"lost_clients"};
    s.tweak = [](harness::ShardExperimentConfig& cfg) {
      // Faster backstop: the rebuilt engine is empty, so shard 2's
      // clients must notice and re-join within the run.
      cfg.client_silence_timeout = vt::seconds(1);
    };
    out.push_back(std::move(s));
  }

  // 6. A partition severing every client from one shard is a NETWORK
  // failure: the engine idles but beats, so the supervisor must not
  // quarantine it (no false-positive escalation).
  {
    Scenario s;
    s.name = "client-partition-no-false-quarantine";
    s.description =
        "sever all clients from shard 1 for 1.5 s; zero escalations, "
        "clients resume in place after heal";
    s.steps = {{.kind = FaultStep::Kind::kPartitionClients,
                .at = mid,
                .shard = 1,
                .dur = vt::millis(1500)}};
    s.digest_shards = {0, 2, 3};
    s.expect_escalation = false;
    out.push_back(std::move(s));
  }

  // 7. Network fault and engine fault at once: partition on shard 0,
  // crash on shard 1. The partition must not confuse the crash
  // adjudication on either side.
  {
    Scenario s;
    s.name = "partition-plus-crash";
    s.description =
        "partition shard 0's clients while shard 1 crashes; only shard 1 "
        "escalates, both recover";
    s.steps = {{.kind = FaultStep::Kind::kPartitionClients,
                .at = mid,
                .shard = 0,
                .dur = vt::millis(1500)},
               {.kind = FaultStep::Kind::kCrashShard,
                .at = mid + vt::millis(200),
                .shard = 1}};
    s.digest_shards = {2, 3};
    s.expect_restored = {1};
    s.extra = [](const harness::ShardExperimentResult& r,
                 std::vector<std::string>& fails) {
      if (r.shards[0].escalations != 0)
        fails.push_back("partitioned shard 0 was falsely escalated");
    };
    out.push_back(std::move(s));
  }

  // 8. Crash under a fleet-wide loss storm: recovery must converge even
  // while half the packets (including resume traffic) are dropped.
  {
    Scenario s;
    s.name = "loss-storm-crash";
    s.description =
        "50% fleet-wide loss for 1.5 s with shard 3 crashed inside the "
        "storm; restore and in-place resume through the loss";
    s.steps = {{.kind = FaultStep::Kind::kLossBurst,
                .at = mid,
                .dur = vt::millis(1500),
                .loss = 0.5f},
               {.kind = FaultStep::Kind::kCrashShard,
                .at = mid + vt::millis(500),
                .shard = 3}};
    s.expect_restored = {3};
    out.push_back(std::move(s));
  }

  // 9. Crash-at-phase hook: shard 2 dies precisely while its handoff
  // mailbox holds an in-flight session. The transfer must survive the
  // quarantine and be adopted by the restored generation.
  {
    Scenario s;
    s.name = "crash-mid-handoff";
    s.description =
        "roaming fleet; crash shard 2 the moment its mailbox is "
        "non-empty; in-flight sessions adopted after restore";
    s.steps = {{.kind = FaultStep::Kind::kCrashWhenMailboxBusy,
                .at = early,
                .shard = 2}};
    s.expect_restored = {2};
    // A roaming fleet losing a shard mid-transfer is the messiest case in
    // the suite: sessions caught between extract and adopt ride the
    // silence backstop, and survivors absorbing the displaced load blow
    // the frame budget until the restored shard pulls its slab back. All
    // declared — the verdict is degraded, and the containment claim this
    // scenario makes is the hard one: every client is connected at the
    // end and the in-flight transfers are adopted, not dropped.
    s.allow_reconnects = true;
    s.allow_slos = {"handoff_p99", "lost_clients", "frame_p99"};
    s.tweak = [](harness::ShardExperimentConfig& cfg) {
      cfg.fleet.boundary_margin = 24.0f;  // sessions roam between shards
    };
    s.extra = [](const harness::ShardExperimentResult& r,
                 std::vector<std::string>& fails) {
      if (r.handoffs_out == 0)
        fails.push_back("no handoffs occurred; the hook never bound");
    };
    out.push_back(std::move(s));
  }

  // 10. Stranded mailbox: a long backoff gap after a re-crash leaves
  // shard 1's mailbox unattended; transfers parked there past the adopt
  // timeout must bounce back to their source, not strand.
  {
    Scenario s;
    s.name = "crash-loop-stranded-mailbox";
    s.description =
        "re-crash shard 1 after its first restore; during the 1.2 s "
        "backoff, stranded handoffs return to source";
    s.steps = {
        {.kind = FaultStep::Kind::kCrashShard, .at = early, .shard = 1},
        {.kind = FaultStep::Kind::kCrashOnRestore,
         .at = early,
         .shard = 1,
         .count = 1}};
    s.expect_restored = {1};
    s.expect_returns_min = 1;
    s.allow_reconnects = true;
    s.allow_slos = {"lost_clients", "frame_p99", "handoff_p99",
                    "recovery_pause"};
    s.tweak = [](harness::ShardExperimentConfig& cfg) {
      cfg.fleet.boundary_margin = 24.0f;
      cfg.fleet.max_restores = 5;
      cfg.fleet.restore_backoff = vt::millis(1200);
      cfg.fleet.restore_backoff_max = vt::millis(1200);
      cfg.fleet.adopt_timeout = vt::millis(100);
    };
    s.extra = [](const harness::ShardExperimentResult& r,
                 std::vector<std::string>& fails) {
      if (r.shards[1].backoff_waits == 0)
        fails.push_back("backoff never held a rebuild back");
      if (r.shards[1].restores < 2)
        fails.push_back("shard 1 was not rebuilt after the backoff");
    };
    out.push_back(std::move(s));
  }

  // 11. Simultaneous triple failure: over the quarantine cap, so the
  // lowest-priority quarantined shard (tie -> highest index: 3) is shed
  // while the other two recover staggered.
  {
    Scenario s;
    s.name = "triple-crash-quarantine-cap";
    s.description =
        "crash shards 1, 2, 3 together; cap sheds shard 3, shards 1 and "
        "2 recover staggered";
    s.steps = {{.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 1},
               {.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 2},
               {.kind = FaultStep::Kind::kCrashShard, .at = mid, .shard = 3}};
    s.expect_restored = {1, 2};
    s.expect_shed = 3;
    s.expect_shed_reason = shard::ShedReason::kQuarantineCap;
    s.allow_reconnects = true;
    s.allow_slos = {"lost_clients", "frame_p99", "handoff_p99",
                    "recovery_pause"};
    out.push_back(std::move(s));
  }

  return out;
}

}  // namespace qserv::chaos
