#include "src/harness/json_export.hpp"

#include <cstdio>
#include <fstream>

namespace qserv::harness {

namespace {

void write_breakdown_pct(obs::JsonWriter& w, const core::BreakdownPct& p) {
  w.begin_object();
  for (const core::Component& c : core::kComponents) w.kv(c.key, p.*c.pct);
  w.end_object();
}

void write_breakdown_ms(obs::JsonWriter& w, const core::Breakdown& b) {
  w.begin_object();
  for (const core::Component& c : core::kComponents)
    w.kv(c.key, (b.*c.ms).millis());
  w.end_object();
}

}  // namespace

void write_result_json(obs::JsonWriter& w, const std::string& label,
                       const ExperimentConfig& cfg,
                       const ExperimentResult& r) {
  w.begin_object();
  w.kv("label", label);

  w.key("config");
  w.begin_object();
  w.kv("mode",
       cfg.mode == ServerMode::kSequential ? "sequential" : "parallel");
  w.kv("threads", cfg.server.threads);
  w.kv("players", cfg.players);
  w.kv("lock_policy", core::lock_policy_name(cfg.server.lock_policy));
  w.kv("assign_policy", core::assign_policy_name(cfg.server.assign_policy));
  w.kv("seed", cfg.seed);
  w.kv("warmup_s", cfg.warmup.seconds());
  w.kv("measure_s", cfg.measure.seconds());
  w.key("machine");
  w.begin_object();
  w.kv("cores", cfg.machine.cores);
  w.kv("ht_per_core", cfg.machine.ht_per_core);
  w.kv("ht_throughput", cfg.machine.ht_throughput);
  w.end_object();
  w.end_object();

  w.key("response");
  w.begin_object();
  w.kv("rate_per_s", r.response_rate);
  w.kv("ms_mean", r.response_ms_mean);
  w.kv("ms_p50", r.response_ms_p50);
  w.kv("ms_p95", r.response_ms_p95);
  w.kv("connected", r.connected);
  w.kv("snapshot_entities_mean", r.snapshot_entities_mean);
  w.end_object();

  w.key("breakdown_pct");
  write_breakdown_pct(w, r.pct);
  w.key("breakdown_ms");
  write_breakdown_ms(w, r.breakdown);

  w.key("locks");
  w.begin_object();
  w.kv("requests_locked", r.locks.requests_locked);
  w.kv("lock_requests", r.locks.lock_requests);
  w.kv("distinct_leaves", r.locks.distinct_leaves);
  w.kv("relocks", r.locks.relocks);
  w.kv("parent_list_locks", r.locks.parent_list_locks);
  w.end_object();

  w.key("lock_analysis");
  w.begin_object();
  w.kv("distinct_leaves_per_request_pct", r.distinct_leaves_per_request_pct);
  w.kv("relock_pct", r.relock_pct);
  w.kv("leaves_locked_per_frame_pct", r.leaves_locked_per_frame_pct);
  w.kv("leaves_shared_per_frame_pct", r.leaves_shared_per_frame_pct);
  w.kv("lock_ops_per_leaf_per_frame", r.lock_ops_per_leaf_per_frame);
  w.end_object();

  w.key("wait");
  w.begin_object();
  w.kv("requests_per_thread_frame_mean", r.requests_per_thread_frame_mean);
  w.kv("requests_per_thread_frame_stddev",
       r.requests_per_thread_frame_stddev);
  w.kv("inter_wait_world_fraction", r.inter_wait_world_fraction);
  w.end_object();

  w.key("counters");
  w.begin_object();
  w.kv("frames", r.frames);
  w.kv("requests", r.requests);
  w.kv("replies", r.replies);
  w.kv("overflow_drops", r.overflow_drops);
  w.kv("reassignments", r.reassignments);
  w.kv("frame_trace_dropped", r.frame_trace_dropped);
  w.kv("evictions", r.evictions);
  w.kv("rejected_connects", r.rejected_connects);
  w.kv("invariant_violations", r.invariant_violations);
  w.kv("client_sessions", r.client_sessions);
  w.kv("client_crashes", r.client_crashes);
  w.kv("client_quits", r.client_quits);
  w.kv("client_rejoins", r.client_rejoins);
  w.kv("total_frags", r.total_frags);
  w.kv("sim_events", r.sim_events);
  w.end_object();

  w.key("resilience");
  w.begin_object();
  w.kv("rejected_busy", r.rejected_busy);
  w.kv("moves_rate_limited", r.moves_rate_limited);
  w.kv("packets_oversized", r.packets_oversized);
  w.kv("moves_coalesced", r.moves_coalesced);
  w.kv("governor_evictions", r.governor_evictions);
  w.kv("governor_steps_down", r.governor_steps_down);
  w.kv("governor_steps_up", r.governor_steps_up);
  w.kv("frames_degraded", r.frames_degraded);
  w.kv("max_degrade_level", r.max_degrade_level);
  w.kv("stalls_injected", r.stalls_injected);
  w.kv("stalls_detected", r.stalls_detected);
  w.kv("stalls_recovered", r.stalls_recovered);
  w.kv("stall_reassignments", r.stall_reassignments);
  w.kv("client_rejected_busy", r.client_rejected_busy);
  w.kv("client_connect_retries", r.client_connect_retries);
  w.kv("client_moves_sent", r.client_moves_sent);
  w.kv("client_replies", r.client_replies);
  w.end_object();

  w.key("recovery");
  w.begin_object();
  w.kv("checkpoints_taken", r.checkpoints_taken);
  w.kv("checkpoint_bytes", r.checkpoint_bytes);
  w.kv("checkpoint_pause_ms",
       static_cast<double>(r.checkpoint_pause_ns) / 1e6);
  w.kv("journal_frames", r.journal_frames);
  w.kv("journal_records", r.journal_records);
  w.kv("blackbox_dumps", r.blackbox_dumps);
  w.kv("blackbox_last_path", r.blackbox_last_path);
  w.kv("resumed_clients", r.resumed_clients);
  w.kv("replay_ran", r.replay_ran);
  w.kv("replay_ok", r.replay_ok);
  w.kv("replay_summary", r.replay_summary);
  w.end_object();

  w.kv("host_seconds", r.host_seconds);
  // Top-level direction-keyed metrics for the trend gate (qserv-trend
  // reads dotted paths off each point): the reply phase's share of
  // execution time, and — when the binary carries an allocation probe —
  // steady-state heap allocations per frame.
  w.kv("reply_share", r.pct.reply);
  if (r.allocs_per_frame >= 0.0) {
    w.kv("allocs_per_frame", r.allocs_per_frame);
  }
  w.end_object();
}

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : bench_(std::move(bench_name)) {}

void BenchJsonWriter::add(const std::string& group, const std::string& label,
                          const ExperimentConfig& cfg,
                          const ExperimentResult& r) {
  std::string out;
  obs::JsonWriter w(out);
  write_result_json(w, label, cfg, r);
  add_raw(group, std::move(out));
}

void BenchJsonWriter::add_raw(const std::string& group,
                              std::string point_json) {
  for (auto& g : groups_) {
    if (g.first == group) {
      g.second.push_back(std::move(point_json));
      return;
    }
  }
  groups_.emplace_back(group,
                       std::vector<std::string>{std::move(point_json)});
}

void BenchJsonWriter::add_points(const std::string& group,
                                 const std::vector<SweepPoint>& points) {
  for (const auto& p : points) add(group, p.label, p.config, p.result);
}

std::string BenchJsonWriter::to_json() const {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "qserv-bench-v1");
  w.kv("bench", bench_);
  w.key("groups");
  w.begin_array();
  for (const auto& g : groups_) {
    w.begin_object();
    w.kv("name", g.first);
    w.key("points");
    w.begin_array();
    for (const auto& point : g.second) w.raw(point);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out.push_back('\n');
  return out;
}

bool BenchJsonWriter::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  f << to_json();
  f.flush();
  if (!f) {
    std::fprintf(stderr, "bench: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace qserv::harness
