#include "src/obs/slo.hpp"

#include <utility>

namespace qserv::obs {

namespace {

double read_stat(const MetricSample& s, SloSpec::Stat stat) {
  return stat == SloSpec::Stat::kP99 ? s.p99 : s.value;
}

}  // namespace

SloMonitor::SloMonitor() : SloMonitor(default_fleet_slos()) {}

SloMonitor::SloMonitor(std::vector<SloSpec> specs)
    : specs_(std::move(specs)) {}

int SloMonitor::evaluate(const std::vector<MetricSample>& samples,
                         double t_seconds, const std::string& scope,
                         Tracer* tracer, int track) {
  ++evaluations_;
  int found = 0;
  for (const SloSpec& spec : specs_) {
    const MetricSample* sample = nullptr;
    for (const MetricSample& s : samples) {
      if (s.name == spec.metric) {
        sample = &s;
        break;
      }
    }
    if (sample == nullptr) continue;
    if (sample->kind == MetricKind::kHistogram &&
        sample->count < spec.min_count)
      continue;
    const double observed = read_stat(*sample, spec.stat);
    if (observed <= spec.bound) continue;
    SloBreach b;
    b.slo = spec.name;
    b.metric = spec.metric;
    b.scope = scope;
    b.observed = observed;
    b.bound = spec.bound;
    b.t_seconds = t_seconds;
    breaches_.push_back(std::move(b));
    ++found;
    if (tracer != nullptr && track >= 0)
      tracer->record_instant(track, tracer->intern("slo:" + spec.name));
  }
  return found;
}

std::vector<SloSpec> SloMonitor::default_fleet_slos() {
  std::vector<SloSpec> specs;
  // The paper's frame budget: 80 Hz ceiling -> 12.5 ms per frame. p99 of
  // the per-engine frame-duration histogram must stay under it.
  specs.push_back({"frame_p99", "server.frame_duration_ms",
                   SloSpec::Stat::kP99, 12.5, 50});
  // Every supervised restore must also fit the between-frames budget:
  // the gauge holds the window's largest pause (host-clock: benches
  // enforce it on an idle box).
  specs.push_back({"recovery_pause", "fleet.recovery.window_pause_ms",
                   SloSpec::Stat::kValue, 12.5, 0});
  // A migrating session must be adopted within a handful of frames.
  specs.push_back({"handoff_p99", "fleet.handoff.latency_ms",
                   SloSpec::Stat::kP99, 150.0, 1});
  // Zero clients unaccounted for across the fleet.
  specs.push_back({"lost_clients", "fleet.clients.lost",
                   SloSpec::Stat::kValue, 0.0, 0});
  return specs;
}

}  // namespace qserv::obs
