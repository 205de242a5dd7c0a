#include "src/obs/fleet.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>

#include "src/core/parallel_server.hpp"
#include "src/obs/collect.hpp"
#include "src/shard/manager.hpp"
#include "src/util/check.hpp"

namespace qserv::obs {

namespace {

// Presentational width of a handoff marker span: wide enough for the
// trace UI to bind and render the flow arrow, far below a frame period.
constexpr int64_t kFlowSpanNs = 50'000;

MetricSample histogram_sample(std::string name, const Histogram& h) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kHistogram;
  s.count = h.count();
  s.value = h.stats().mean();
  s.min = h.stats().min();
  s.max = h.stats().max();
  s.p50 = h.percentile(50.0);
  s.p95 = h.percentile(95.0);
  s.p99 = h.percentile(99.0);
  return s;
}

}  // namespace

std::vector<MetricSample> federate(
    const std::vector<std::pair<std::string, const MetricsRegistry*>>&
        parts) {
  std::vector<MetricSample> out;
  // Pass 1: per-part samples under "<label>.<name>".
  for (const auto& [label, reg] : parts) {
    for (MetricSample s : reg->snapshot()) {
      s.name = label + "." + s.name;
      out.push_back(std::move(s));
    }
  }
  // Pass 2: cross-part aggregates under "fleet.<name>". Counters sum;
  // histograms merge at the bucket level (percentiles of percentiles
  // would be meaningless) — via for_each, which exposes the raw
  // instruments rather than the reduced snapshot.
  std::map<std::string, uint64_t> counter_sums;
  std::map<std::string, std::optional<Histogram>> merged;
  for (const auto& [label, reg] : parts) {
    reg->for_each([&](const std::string& name, MetricKind kind,
                      const Counter* c, const Gauge* /*g*/,
                      const HistogramMetric* h) {
      if (kind == MetricKind::kCounter) {
        counter_sums[name] += c->value();
      } else if (kind == MetricKind::kHistogram) {
        const Histogram snap = h->snapshot();
        auto& slot = merged[name];
        if (slot.has_value())
          slot->merge(snap);
        else
          slot = snap;
      }
    });
  }
  for (const auto& [name, sum] : counter_sums) {
    MetricSample s;
    s.name = "fleet." + name;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(sum);
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : merged)
    out.push_back(histogram_sample("fleet." + name, *h));
  return out;
}

FleetObs::FleetObs(Tracer* tracer) : FleetObs(tracer, Config()) {}

FleetObs::FleetObs(Tracer* tracer, Config cfg)
    : tracer_(tracer), cfg_(std::move(cfg)), slo_(cfg_.slos) {
  handoffs_out_ = &fleet_reg_.counter("fleet.handoffs.out");
  handoffs_in_ = &fleet_reg_.counter("fleet.handoffs.in");
  escalations_ = &fleet_reg_.counter("fleet.supervisor.escalations");
  restores_ = &fleet_reg_.counter("fleet.supervisor.restores");
  tail_replays_ = &fleet_reg_.counter("fleet.supervisor.tail_replays");
  sheds_ = &fleet_reg_.counter("fleet.supervisor.sheds");
  shed_sessions_ = &fleet_reg_.counter("fleet.supervisor.shed_sessions");
  fresh_rebuilds_ = &fleet_reg_.counter("fleet.supervisor.fresh_rebuilds");
  breaker_trips_ = &fleet_reg_.counter("fleet.supervisor.breaker_trips");
  handoff_returns_ = &fleet_reg_.counter("fleet.handoff.returns");
  overflow_sheds_ = &fleet_reg_.counter("fleet.handoff.overflow_sheds");
  last_pause_ms_ = &fleet_reg_.gauge("fleet.recovery.last_pause_ms");
  connected_ = &fleet_reg_.gauge("fleet.clients.connected");
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
  escalations_->inc();
  if (tracer_ != nullptr)
    tracer_->record_instant(supervisor_track_[static_cast<size_t>(shard)],
                            tracer_->intern(std::string("quarantine:") +
                                            why));
}

void FleetObs::on_restore(int shard, uint64_t tail_frames, double pause_ms,
                          const char* mode) {
  const bool tail_replay = std::string_view(mode) == "tail-replay";
  restores_->inc();
  if (tail_replay) tail_replays_->inc();
  if (std::string_view(mode) == "fresh-rebuild") fresh_rebuilds_->inc();
  last_pause_ms_->set(pause_ms);
  if (tracer_ == nullptr) return;
  const int track = supervisor_track_[static_cast<size_t>(shard)];
  if (tail_replay)
    tracer_->record_instant(
        track, tracer_->intern("tail-replay:" + std::to_string(tail_frames) +
                               "f"));
  tracer_->record_instant(track,
                          tracer_->intern(std::string("restore:") + mode));
}

void FleetObs::on_shed(int shard, uint64_t sessions, const char* why) {
  sheds_->inc();
  shed_sessions_->inc(sessions);
  if (std::string_view(why) == "crash-loop") breaker_trips_->inc();
  if (tracer_ != nullptr)
    tracer_->record_instant(
        supervisor_track_[static_cast<size_t>(shard)],
        tracer_->intern(std::string("shed:") + why + ":" +
                        std::to_string(sessions)));
}

void FleetObs::on_handoff_returned(int at_shard, int to_shard,
                                   uint64_t flow, bool supervisor_ctx) {
  handoff_returns_->inc();
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
  overflow_sheds_->inc();
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
  handoffs_out_->inc();
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
  handoffs_in_->inc();
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
  // Fleet gauges derived from heartbeat atomics (mid-run safe: the
  // supervisor reads the same fields the same way).
  int connected = 0;
  for (int i = 0; i < mgr_->shards(); ++i)
    if (!mgr_->shard(i).down()) connected += mgr_->shard(i).beat_clients();
  connected_->set(connected);
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

void FleetObs::collect_final() {
  QSERV_CHECK(mgr_ != nullptr);
  for (int i = 0; i < mgr_->shards(); ++i) {
    const shard::Shard& s = mgr_->shard(i);
    if (s.down() || s.server() == nullptr) continue;
    collect_server(*s.server(), *shard_regs_[static_cast<size_t>(i)]);
  }
}

std::vector<MetricSample> FleetObs::fleet_snapshot() const {
  std::vector<std::pair<std::string, const MetricsRegistry*>> parts;
  parts.reserve(shard_regs_.size());
  for (size_t i = 0; i < shard_regs_.size(); ++i)
    parts.emplace_back("shard" + std::to_string(i), shard_regs_[i].get());
  std::vector<MetricSample> out = federate(parts);
  // The plane's own fleet.* instruments are already fleet-scoped.
  for (MetricSample& s : fleet_reg_.snapshot())
    out.push_back(std::move(s));
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

int64_t FleetObs::now_ns() const {
  return mgr_ != nullptr ? mgr_->platform().now().ns : 0;
}

}  // namespace qserv::obs
