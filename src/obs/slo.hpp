// Declarative SLO monitor: a list of SloSpecs — each naming a registry
// metric, the statistic to read off it, a comparison and a bound — is
// evaluated against metric snapshots once per observation window. The
// paper's core budget (a 12.5 ms frame at QuakeWorld's 80 Hz ceiling,
// §2) becomes the default frame-time SLO; the recovery and shard layers
// add budgets of their own (restore pause, handoff latency, lost
// clients). Breaches are kept as structured events (the shard harness
// copies them into its result) and optionally emitted as trace instants
// onto a fleet track — so "the fleet held its SLOs" is a machine
// checkable claim, not a log line.
//
// Thread model: evaluate() is called from one context at a time (the
// harness's periodic observation timer, then once post-run); it is not
// thread-safe against itself. Spec/breach storage is stable, so
// instant-event names interned from specs stay valid for export.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace qserv::obs {

struct SloSpec {
  // Which statistic of the sample to compare. kValue reads the
  // counter/gauge value (histogram mean); the rest are histogram-only.
  enum class Stat : uint8_t { kValue, kP50, kP95, kP99, kMax, kCount };
  enum class Cmp : uint8_t { kLE, kGE, kEQ };

  std::string name;    // short label: "frame_p99"
  std::string metric;  // sample name to evaluate: "server.frame_duration_ms"
  Stat stat = Stat::kValue;
  Cmp cmp = Cmp::kLE;
  double bound = 0.0;
  // Histogram specs: skip evaluation until this many observations exist
  // in the window (percentiles of a near-empty histogram are noise).
  uint64_t min_count = 0;
};

// One violated spec in one observation window.
struct SloBreach {
  std::string slo;     // SloSpec::name
  std::string metric;  // SloSpec::metric
  std::string scope;   // "fleet", "shard1", ... — whose snapshot breached
  double observed = 0.0;
  double bound = 0.0;
  double t_seconds = 0.0;  // platform time of the evaluation
};

class SloMonitor {
 public:
  SloMonitor();  // default_fleet_slos()
  explicit SloMonitor(std::vector<SloSpec> specs);

  // Evaluates every spec against one snapshot. Specs whose metric is
  // absent from `samples` are skipped (a spec only binds where its
  // subsystem reports). Returns the number of breaches found in this
  // call; all breaches accumulate in breaches(). With a tracer, each
  // breach emits an instant "slo:<name>" on `track`.
  int evaluate(const std::vector<MetricSample>& samples, double t_seconds,
               const std::string& scope, Tracer* tracer = nullptr,
               int track = -1);

  const std::vector<SloBreach>& breaches() const { return breaches_; }
  uint64_t evaluations() const { return evaluations_; }

  // The fleet defaults: p99 frame time vs the 12.5 ms budget, supervised
  // recovery pause vs the same between-frames budget, cross-shard
  // handoff latency, and zero lost clients.
  static std::vector<SloSpec> default_fleet_slos();

 private:
  std::vector<SloSpec> specs_;
  std::vector<SloBreach> breaches_;
  uint64_t evaluations_ = 0;
};

}  // namespace qserv::obs
