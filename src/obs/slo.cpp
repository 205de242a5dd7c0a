#include "src/obs/slo.hpp"

#include <utility>

namespace qserv::obs {

namespace {

double read_stat(const MetricSample& s, SloSpec::Stat stat) {
  switch (stat) {
    case SloSpec::Stat::kValue:
      return s.value;
    case SloSpec::Stat::kP50:
      return s.p50;
    case SloSpec::Stat::kP95:
      return s.p95;
    case SloSpec::Stat::kP99:
      return s.p99;
    case SloSpec::Stat::kMax:
      return s.max;
    case SloSpec::Stat::kCount:
      return static_cast<double>(s.count);
  }
  return 0.0;
}

bool holds(double observed, SloSpec::Cmp cmp, double bound) {
  switch (cmp) {
    case SloSpec::Cmp::kLE:
      return observed <= bound;
    case SloSpec::Cmp::kGE:
      return observed >= bound;
    case SloSpec::Cmp::kEQ:
      return observed == bound;
  }
  return true;
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
    if (holds(observed, spec.cmp, spec.bound)) continue;
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
                   SloSpec::Stat::kP99, SloSpec::Cmp::kLE, 12.5, 50});
  // Supervised restore must also fit the between-frames budget (the
  // gauge is host-clock: benches enforce it on an idle box).
  specs.push_back({"recovery_pause", "fleet.recovery.last_pause_ms",
                   SloSpec::Stat::kValue, SloSpec::Cmp::kLE, 12.5, 0});
  // A migrating session must be adopted within a handful of frames.
  specs.push_back({"handoff_p99", "fleet.handoff.latency_ms",
                   SloSpec::Stat::kP99, SloSpec::Cmp::kLE, 150.0, 1});
  // Zero clients unaccounted for across the fleet.
  specs.push_back({"lost_clients", "fleet.clients.lost",
                   SloSpec::Stat::kValue, SloSpec::Cmp::kLE, 0.0, 0});
  return specs;
}

}  // namespace qserv::obs
