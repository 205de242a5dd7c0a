// Worker watchdog: detects wedged worker threads from their heartbeats.
//
// Each worker stamps a heartbeat (relaxed atomic store of the current
// time) at the top of its frame loop. Detection is two-tier:
//   - check_due() is a cheap const scan used by (a) live workers on their
//     select-timeout maintenance path and (b) a periodic timer on
//     RealPlatform. It only *reports* that a heartbeat looks stale — the
//     timer and maintenance paths never mutate watchdog state, they just
//     make sure a frame (and with it a master window) happens soon.
//   - master_check() runs in the master's single-threaded between-frames
//     window and is the only writer: it moves workers in and out of the
//     stalled set and returns the deltas so the server can reassign the
//     stalled worker's clients and exclude it from participation.
//
// A worker that has never heartbeat (not started yet) is never considered
// stalled. A stalled worker whose heartbeat resumes is moved back to the
// live set (stall *recovery* in the thread-came-back sense; its clients
// stay wherever they were migrated — reassignment is one-way).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/resilience/config.hpp"

namespace qserv::resilience {

class WorkerWatchdog {
 public:
  WorkerWatchdog(const Config& cfg, int num_threads);

  bool enabled() const { return cfg_.watchdog_timeout.ns > 0; }
  int num_threads() const { return static_cast<int>(beats_.size()); }

  // Worker-side stamp; any thread, lock-free.
  void heartbeat(int tid, vt::TimePoint now) {
    beats_[static_cast<size_t>(tid)].store(now.ns, std::memory_order_relaxed);
  }

  // True if some live worker's heartbeat is stale — i.e. a master window
  // should run soon to adjudicate. Const, any thread. `self` (the asking
  // worker, -1 for the RealPlatform timer) is exempted: it is obviously
  // alive to be asking.
  bool check_due(vt::TimePoint now, int self = -1) const;

  struct Verdict {
    std::vector<int> newly_stalled;
    std::vector<int> recovered;
  };
  // Master-window only (single-threaded): adjudicates stale heartbeats,
  // updates the stalled mask, and returns what changed.
  Verdict master_check(vt::TimePoint now, int self);

  // Bit per stalled worker; any thread.
  uint64_t stalled_mask() const {
    return stalled_mask_.load(std::memory_order_relaxed);
  }
  bool is_stalled(int tid) const {
    return (stalled_mask() >> tid) & 1u;
  }

  struct Counters {
    uint64_t stalls_detected = 0;
    uint64_t stalls_recovered = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  static constexpr int64_t kNever = INT64_MIN;

  const Config cfg_;
  // Sized once by the constructor (atomics are not movable).
  std::vector<std::atomic<int64_t>> beats_;
  std::atomic<uint64_t> stalled_mask_{0};
  Counters counters_;
};

}  // namespace qserv::resilience
