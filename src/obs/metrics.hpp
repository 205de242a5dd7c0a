// Metrics registry: named gauges and histograms with snapshots — the
// live instruments the SLO monitor reads. The server frame loop and the
// lock manager feed histograms (frame duration, moves per frame, lock
// waits); the fleet plane keeps its recovery-pause and lost-client gauges
// and its handoff-latency histogram here.
//
// Instrument references returned by the registry are stable for the
// registry's lifetime (node-based storage), so hot paths hold a pointer
// and never touch the name map again.
//
// Thread safety: gauges are relaxed atomics; histogram observations take
// a std::mutex (uncontended under SimPlatform, whose fibers share one OS
// thread; cheap under RealPlatform where only observation-heavy paths
// share an instrument). Snapshotting is safe concurrent with updates —
// values are read racily, which is fine for reporting.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/histogram.hpp"

namespace qserv::obs {

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
  // Copy of the underlying histogram (percentile queries).
  Histogram snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

enum class MetricKind : uint8_t { kGauge, kHistogram };

// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;  // gauge value, histogram mean
  // Histogram-only fields.
  uint64_t count = 0;
  double p99 = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create by name. The same name must keep the same kind.
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double smallest = 1e-6,
                             double base = 1.25, int buckets = 160);

  // All instruments, sorted by name.
  std::vector<MetricSample> snapshot() const;

  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  mutable std::mutex mu_;  // guards the name map, not the instruments
  std::map<std::string, Entry> entries_;
};

}  // namespace qserv::obs
