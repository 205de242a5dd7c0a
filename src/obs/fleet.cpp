#include "src/obs/fleet.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/core/parallel_server.hpp"
#include "src/shard/manager.hpp"
#include "src/util/check.hpp"

namespace qserv::obs {

namespace {

// Presentational width of a handoff marker span: wide enough for the
// trace UI to bind and render the flow arrow, far below a frame period.
constexpr int64_t kFlowSpanNs = 50'000;

}  // namespace

FleetObs::FleetObs(Tracer* tracer) : FleetObs(tracer, Config()) {}

FleetObs::FleetObs(Tracer* tracer, Config cfg)
    : tracer_(tracer), cfg_(std::move(cfg)), slo_(cfg_.slos) {
  last_pause_ms_ = &fleet_reg_.gauge("fleet.recovery.last_pause_ms");
  lost_ = &fleet_reg_.gauge("fleet.clients.lost");
  handoff_latency_ms_ =
      &fleet_reg_.histogram("fleet.handoff.latency_ms", 1e-3);
}

void FleetObs::attach(shard::ShardManager& mgr) {
  QSERV_CHECK_MSG(mgr_ == nullptr, "FleetObs attaches to one fleet");
  mgr_ = &mgr;
  const int n = mgr.shards();
  shard_regs_.clear();
  for (int i = 0; i < n; ++i)
    shard_regs_.push_back(std::make_unique<MetricsRegistry>());
  handoff_track_.assign(static_cast<size_t>(n), -1);
  supervisor_track_.assign(static_cast<size_t>(n), -1);
  generation_.assign(static_cast<size_t>(n), 0);
  if (tracer_ != nullptr) {
    tracer_->bind(mgr.platform());
    tracer_->set_process_name(cfg_.fleet_pid, "fleet");
    slo_track_ = tracer_->make_track("fleet/slo", cfg_.fleet_pid);
    for (int i = 0; i < n; ++i) {
      const std::string label = "shard-" + std::to_string(i);
      tracer_->set_process_name(shard_pid(i), label);
      handoff_track_[static_cast<size_t>(i)] =
          tracer_->make_track(label + "/handoff", shard_pid(i));
      supervisor_track_[static_cast<size_t>(i)] =
          tracer_->make_track(label + "/supervisor", shard_pid(i));
    }
  }
  for (int i = 0; i < n; ++i) attach_engine(i, *mgr.shard(i).server());
  mgr.set_observer(this);
}

void FleetObs::attach_engine(int shard, core::ParallelServer& server) {
  const int gen = generation_[static_cast<size_t>(shard)];
  std::string prefix = "shard-" + std::to_string(shard) + "/";
  // Rebuilt generations get their own worker rows: the dead generation's
  // spans stay in the export, labeled apart from the successor's.
  if (gen > 0) {
    prefix += 'g';
    prefix += std::to_string(gen);
    prefix += '/';
  }
  prefix += "t";
  server.attach_observability(tracer_, shard_regs_[shard].get(),
                              shard_pid(shard), prefix);
}

void FleetObs::on_engine_built(int shard, core::ParallelServer& server) {
  ++generation_[static_cast<size_t>(shard)];
  attach_engine(shard, server);
}

void FleetObs::on_escalation(int shard, const char* why) {
  if (tracer_ != nullptr)
    tracer_->record_instant(supervisor_track_[static_cast<size_t>(shard)],
                            tracer_->intern(std::string("quarantine:") +
                                            why));
}

void FleetObs::on_restore(int shard, uint64_t tail_frames, double pause_ms,
                          const char* mode) {
  last_pause_ms_->set(pause_ms);
  if (tracer_ == nullptr) return;
  const int track = supervisor_track_[static_cast<size_t>(shard)];
  if (std::string_view(mode) == "tail-replay")
    tracer_->record_instant(
        track, tracer_->intern("tail-replay:" + std::to_string(tail_frames) +
                               "f"));
  tracer_->record_instant(track,
                          tracer_->intern(std::string("restore:") + mode));
}

void FleetObs::on_shed(int shard, uint64_t sessions, const char* why) {
  if (tracer_ != nullptr)
    tracer_->record_instant(
        supervisor_track_[static_cast<size_t>(shard)],
        tracer_->intern(std::string("shed:") + why + ":" +
                        std::to_string(sessions)));
}

void FleetObs::on_handoff_returned(int at_shard, int to_shard,
                                   uint64_t flow, bool supervisor_ctx) {
  if (tracer_ == nullptr) return;
  // Track choice keeps the single-writer rule: the supervisor's reclaim
  // writes at_shard's supervisor track, at_shard's own master window
  // (adopt retry budget) writes its handoff track.
  const int track = supervisor_ctx
                        ? supervisor_track_[static_cast<size_t>(at_shard)]
                        : handoff_track_[static_cast<size_t>(at_shard)];
  tracer_->record_instant(
      track, tracer_->intern("handoff-return>shard-" +
                             std::to_string(to_shard)));
  (void)flow;  // the re-post traces as a fresh flow span via on_handoff_out
}

void FleetObs::on_handoff_overflow(int target, uint64_t flow) {
  // The flow will never be adopted: drop its begin stamp so the map does
  // not keep it for the rest of the run.
  std::lock_guard<std::mutex> lock(flows_mu_);
  flow_begin_ns_.erase(flow);
  (void)target;
}

void FleetObs::note_flow_begin(int src_track, const char* span_name,
                               int /*dst*/, uint64_t flow) {
  const int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(flows_mu_);
    flow_begin_ns_[flow] = t;
  }
  if (tracer_ != nullptr && src_track >= 0)
    tracer_->record_flow_span(src_track, span_name, t, kFlowSpanNs, -1,
                              flow, /*outgoing=*/true);
}

void FleetObs::on_handoff_out(int src, int dst, uint64_t flow) {
  note_flow_begin(
      tracer_ != nullptr ? handoff_track_[static_cast<size_t>(src)] : -1,
      tracer_ != nullptr
          ? tracer_->intern("handoff-out>shard-" + std::to_string(dst))
          : nullptr,
      dst, flow);
}

void FleetObs::on_shed_handoff(int src, int dst, uint64_t flow) {
  // Supervisor context: the dead shard's engine is quiesced, so writing
  // its supervisor-owned track keeps the single-writer rule.
  note_flow_begin(
      tracer_ != nullptr ? supervisor_track_[static_cast<size_t>(src)] : -1,
      tracer_ != nullptr
          ? tracer_->intern("shed>shard-" + std::to_string(dst))
          : nullptr,
      dst, flow);
}

void FleetObs::on_handoff_in(int dst, uint64_t flow) {
  const int64_t t = now_ns();
  int64_t begun = -1;
  {
    std::lock_guard<std::mutex> lock(flows_mu_);
    auto it = flow_begin_ns_.find(flow);
    if (it != flow_begin_ns_.end()) {
      begun = it->second;
      flow_begin_ns_.erase(it);
    }
  }
  if (begun >= 0)
    handoff_latency_ms_->observe(static_cast<double>(t - begun) * 1e-6);
  if (tracer_ != nullptr)
    tracer_->record_flow_span(handoff_track_[static_cast<size_t>(dst)],
                              "handoff-in", t, kFlowSpanNs, -1, flow,
                              /*outgoing=*/false);
}

void FleetObs::evaluate_window() {
  QSERV_CHECK(mgr_ != nullptr);
  const double t = static_cast<double>(mgr_->platform().now().ns) * 1e-9;
  // The connected count comes from heartbeat atomics (mid-run safe: the
  // supervisor reads the same fields the same way).
  int connected = 0;
  for (int i = 0; i < mgr_->shards(); ++i)
    if (!mgr_->shard(i).down()) connected += mgr_->shard(i).beat_clients();
  // Lost-client accounting. "Lost" means a previously-connected client is
  // gone, so the count is latched off until the fleet has been observed
  // fully connected once (the join ramp is not a loss). It is also
  // debounced across two consecutive windows: heartbeat counts are
  // published at frame boundaries, so a single-window dip while a
  // restored shard re-admits its sessions reads as staleness, not loss —
  // a client missing for two windows running is the real thing.
  const int raw_lost = cfg_.expected_clients > 0
                           ? std::max(0, cfg_.expected_clients - connected)
                           : 0;
  if (cfg_.expected_clients > 0 && connected >= cfg_.expected_clients)
    saw_full_fleet_ = true;
  lost_->set(saw_full_fleet_ ? std::min(raw_lost, prev_raw_lost_) : 0);
  prev_raw_lost_ = saw_full_fleet_ ? raw_lost : 0;
  // SLO pass: each shard's own snapshot (frame-time budget binds here),
  // then the fleet snapshot (recovery / handoff / lost-client budgets).
  // Specs skip snapshots that lack their metric.
  for (int i = 0; i < mgr_->shards(); ++i) {
    if (mgr_->shard(i).down()) continue;
    slo_.evaluate(shard_regs_[static_cast<size_t>(i)]->snapshot(), t,
                  "shard" + std::to_string(i), tracer_, slo_track_);
  }
  slo_.evaluate(fleet_reg_.snapshot(), t, "fleet", tracer_, slo_track_);
}

int64_t FleetObs::now_ns() const {
  return mgr_ != nullptr ? mgr_->platform().now().ns : 0;
}

}  // namespace qserv::obs
