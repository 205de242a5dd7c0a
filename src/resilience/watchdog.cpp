#include "src/resilience/watchdog.hpp"

namespace qserv::resilience {

WorkerWatchdog::WorkerWatchdog(const Config& cfg, int num_threads)
    : cfg_(cfg),
      beats_(num_threads > 0 ? static_cast<size_t>(num_threads) : 1) {
  for (auto& beat : beats_) beat.store(kNever, std::memory_order_relaxed);
}

bool WorkerWatchdog::check_due(vt::TimePoint now, int self) const {
  if (!enabled()) return false;
  const uint64_t stalled = stalled_mask();
  for (size_t i = 0; i < beats_.size(); ++i) {
    if (static_cast<int>(i) == self) continue;
    if ((stalled >> i) & 1u) continue;  // already adjudicated
    const int64_t hb = beats_[i].load(std::memory_order_relaxed);
    if (hb == kNever) continue;  // never started
    if (now.ns - hb > cfg_.watchdog_timeout.ns) return true;
  }
  return false;
}

WorkerWatchdog::Verdict WorkerWatchdog::master_check(vt::TimePoint now,
                                                     int self) {
  Verdict v;
  if (!enabled()) return v;
  uint64_t stalled = stalled_mask_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < beats_.size(); ++i) {
    const int64_t hb = beats_[i].load(std::memory_order_relaxed);
    if (hb == kNever) continue;
    const bool stale = now.ns - hb > cfg_.watchdog_timeout.ns;
    const bool marked = (stalled >> i) & 1u;
    if (stale && !marked && static_cast<int>(i) != self) {
      stalled |= (uint64_t{1} << i);
      ++counters_.stalls_detected;
      v.newly_stalled.push_back(static_cast<int>(i));
    } else if (!stale && marked) {
      stalled &= ~(uint64_t{1} << i);
      ++counters_.stalls_recovered;
      v.recovered.push_back(static_cast<int>(i));
    }
  }
  stalled_mask_.store(stalled, std::memory_order_relaxed);
  return v;
}

}  // namespace qserv::resilience
