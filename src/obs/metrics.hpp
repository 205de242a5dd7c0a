// Metrics registry: named counters, gauges, and histograms with snapshot
// and JSON export — the Envoy-style stats layer for qserv. Subsystems
// that accept a registry pointer (server frame loop, lock manager, and
// the collectors in obs/collect.hpp) update live instruments; the harness
// takes periodic or final snapshots.
//
// Instrument references returned by the registry are stable for the
// registry's lifetime (node-based storage), so hot paths hold a pointer
// and never touch the name map again.
//
// Thread safety: counters and gauges are relaxed atomics; histogram
// observations take a std::mutex (uncontended under SimPlatform, whose
// fibers share one OS thread; cheap under RealPlatform where only
// observation-heavy paths share an instrument). Snapshotting is safe
// concurrent with updates — values are read racily, which is fine for
// reporting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.hpp"

namespace qserv::obs {

class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void set(uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class HistogramMetric {
 public:
  explicit HistogramMetric(double smallest = 1e-6, double base = 1.25,
                           int buckets = 160)
      : hist_(smallest, base, buckets) {}

  void observe(double x) {
    std::lock_guard<std::mutex> g(mu_);
    hist_.add(x);
  }
  // Copy of the underlying histogram (percentile queries, merging).
  Histogram snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter/gauge value, histogram mean
  // Histogram-only fields.
  uint64_t count = 0;
  double min = 0.0, max = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name. The same name must keep the same kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double smallest = 1e-6,
                             double base = 1.25, int buckets = 160);

  // All instruments, sorted by name.
  std::vector<MetricSample> snapshot() const;

  // Visits every instrument in name order; exactly one of the three
  // instrument pointers is non-null, matching `kind`. Instruments are
  // live — reads race benignly, as in snapshot(). Used by the fleet
  // federation layer, which needs the raw histograms (percentiles do not
  // merge; buckets do).
  void for_each(const std::function<void(const std::string&, MetricKind,
                                         const Counter*, const Gauge*,
                                         const HistogramMetric*)>& fn) const;

  // {"schema":"qserv-metrics-v1","metrics":[...]}.
  std::string to_json() const;

  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  mutable std::mutex mu_;  // guards the name map, not the instruments
  std::map<std::string, Entry> entries_;
};

// A timestamped snapshot, for periodic capture during a run.
struct TimedSnapshot {
  double t_seconds = 0.0;  // platform time when taken
  std::vector<MetricSample> samples;
};

// Serializes a sample list in the qserv-metrics-v1 shape
// ({"schema":"qserv-metrics-v1","metrics":[...]}); MetricsRegistry::
// to_json and the fleet federation both emit through this.
std::string samples_to_json(const std::vector<MetricSample>& samples);

}  // namespace qserv::obs
