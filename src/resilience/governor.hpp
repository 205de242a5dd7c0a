// Frame-budget governor: turns overload into measured degradation.
//
// The master feeds every finished frame's duration into on_frame() from
// its single-threaded between-frames window. The governor keeps a rolling
// window of durations; when the window's p95 exceeds the tick budget it
// steps *down* the degradation ladder (config.hpp's DegradeLevel rungs),
// and when p95 falls back below the exit threshold it steps *up* again —
// hysteretically, with a dwell time between steps so the ladder does not
// chatter at the boundary.
//
// Thread safety: on_frame() is master-window-only (successive masters are
// ordered by the frame-sync mutex); level() and p95-based admission
// queries are relaxed atomics readable from any thread's hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/resilience/config.hpp"

namespace qserv::resilience {

class FrameGovernor {
 public:
  explicit FrameGovernor(const Config& cfg);

  // Records one finished frame. Master-only, between frames. Returns the
  // (possibly changed) degradation level so the caller can trace steps.
  int on_frame(vt::Duration frame_time);

  // Current ladder level; any thread. 0 when the governor is disabled.
  int level() const { return level_.load(std::memory_order_relaxed); }
  bool at_least(int rung) const { return level() >= rung; }

  // Rolling p95 frame time, milliseconds; any thread.
  double p95_ms() const { return p95_ms_.load(std::memory_order_relaxed); }

  // Connect-time admission query: true while the rolling p95 exceeds
  // kAdmissionRatio * tick_budget. Independent of `governor` being
  // enabled — admission control can run without the ladder — but needs
  // on_frame() feeding either way.
  bool admission_overloaded() const {
    return p95_ms() > cfg_.tick_budget.millis() * kAdmissionRatio;
  }

  struct Counters {
    uint64_t steps_down = 0;      // level increases (more degradation)
    uint64_t steps_up = 0;        // level decreases (recovery)
    uint64_t frames_degraded = 0; // frames finished at level > 0
  };
  // Post-run / master-window reads.
  const Counters& counters() const { return counters_; }
  int max_level_reached() const { return max_level_reached_; }

 private:
  const Config cfg_;
  std::vector<double> window_ms_;  // ring of recent frame durations
  std::vector<double> sorted_;     // on_frame()'s p95 scratch
  size_t next_ = 0;
  size_t filled_ = 0;
  int frames_since_step_ = 0;
  std::atomic<int> level_{0};
  std::atomic<double> p95_ms_{0.0};
  Counters counters_;
  int max_level_reached_ = 0;
};

}  // namespace qserv::resilience
