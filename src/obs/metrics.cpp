#include "src/obs/metrics.hpp"

#include "src/util/check.hpp"

namespace qserv::obs {

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  Entry& e = entries_[name];
  if (e.gauge == nullptr) {
    QSERV_CHECK_MSG(e.histogram == nullptr, "metric kind mismatch");
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
    QSERV_CHECK_MSG(e.gauge == nullptr, "metric kind mismatch");
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

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_.size();
}

}  // namespace qserv::obs
