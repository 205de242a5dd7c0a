#include "src/obs/metrics.hpp"

#include "src/obs/json.hpp"
#include "src/util/check.hpp"

namespace qserv::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr) {
    QSERV_CHECK_MSG(e.gauge == nullptr && e.histogram == nullptr,
                    "metric kind mismatch");
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = entries_[name];
  if (e.gauge == nullptr) {
    QSERV_CHECK_MSG(e.counter == nullptr && e.histogram == nullptr,
                    "metric kind mismatch");
    e.kind = MetricKind::kGauge;
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            double smallest, double base,
                                            int buckets) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = entries_[name];
  if (e.histogram == nullptr) {
    QSERV_CHECK_MSG(e.counter == nullptr && e.gauge == nullptr,
                    "metric kind mismatch");
    e.kind = MetricKind::kHistogram;
    e.histogram = std::make_unique<HistogramMetric>(smallest, base, buckets);
  }
  return *e.histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram h = e.histogram->snapshot();
        s.count = h.count();
        s.value = h.stats().mean();
        s.min = h.stats().min();
        s.max = h.stats().max();
        s.p50 = h.percentile(50.0);
        s.p95 = h.percentile(95.0);
        s.p99 = h.percentile(99.0);
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::for_each(
    const std::function<void(const std::string&, MetricKind, const Counter*,
                             const Gauge*, const HistogramMetric*)>& fn)
    const {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, e] : entries_)
    fn(name, e.kind, e.counter.get(), e.gauge.get(), e.histogram.get());
}

std::string MetricsRegistry::to_json() const {
  return samples_to_json(snapshot());
}

std::string samples_to_json(const std::vector<MetricSample>& samples) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "qserv-metrics-v1");
  w.key("metrics");
  w.begin_array();
  for (const MetricSample& s : samples) {
    w.begin_object();
    w.kv("name", s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        w.kv("type", "counter");
        w.kv("value", static_cast<uint64_t>(s.value));
        break;
      case MetricKind::kGauge:
        w.kv("type", "gauge");
        w.kv("value", s.value);
        break;
      case MetricKind::kHistogram:
        w.kv("type", "histogram");
        w.kv("count", s.count);
        w.kv("mean", s.value);
        w.kv("min", s.min);
        w.kv("max", s.max);
        w.kv("p50", s.p50);
        w.kv("p95", s.p95);
        w.kv("p99", s.p99);
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.size();
}

}  // namespace qserv::obs
