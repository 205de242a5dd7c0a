#include "src/resilience/governor.hpp"

#include <algorithm>

namespace qserv::resilience {

const char* degrade_level_name(int level) {
  switch (level) {
    case kNormal: return "normal";
    case kThinFarEntities: return "thin-far-entities";
    case kCoalesceMoves: return "coalesce-moves";
    case kShedDebugWork: return "shed-debug-work";
    case kEvictExpensive: return "evict-expensive";
    default: return "unknown";
  }
}

FrameGovernor::FrameGovernor(const Config& cfg) : cfg_(cfg) {
  window_ms_.resize(cfg_.window > 0 ? static_cast<size_t>(cfg_.window) : 1,
                    0.0);
  sorted_.reserve(window_ms_.size());
}

int FrameGovernor::on_frame(vt::Duration frame_time) {
  window_ms_[next_] = frame_time.millis();
  next_ = (next_ + 1) % window_ms_.size();
  if (filled_ < window_ms_.size()) ++filled_;

  // p95 over the filled portion of the window. The window is small
  // (default 32) so a copy+nth_element per frame is noise next to the
  // frame itself; the copy goes to a buffer sized at construction.
  sorted_.assign(window_ms_.begin(),
                 window_ms_.begin() + static_cast<long>(filled_));
  const size_t idx = (filled_ * 95) / 100;
  const size_t nth = idx < filled_ ? idx : filled_ - 1;
  std::nth_element(sorted_.begin(), sorted_.begin() + static_cast<long>(nth),
                   sorted_.end());
  const double p95 = sorted_[nth];
  p95_ms_.store(p95, std::memory_order_relaxed);

  int level = level_.load(std::memory_order_relaxed);
  if (level > 0) ++counters_.frames_degraded;
  if (!cfg_.governor) return level;

  ++frames_since_step_;
  const double budget = cfg_.tick_budget.millis();
  // Don't step on a part-filled window: a couple of slow startup frames
  // should not throw the ladder before there is a real p95 to read.
  if (filled_ < window_ms_.size() || frames_since_step_ < cfg_.dwell) {
    return level;
  }
  if (p95 > budget * kEnterRatio && level < cfg_.max_level) {
    ++level;
    ++counters_.steps_down;
    frames_since_step_ = 0;
    level_.store(level, std::memory_order_relaxed);
    max_level_reached_ = std::max(max_level_reached_, level);
  } else if (p95 < budget * kExitRatio && level > 0) {
    --level;
    ++counters_.steps_up;
    frames_since_step_ = 0;
    level_.store(level, std::memory_order_relaxed);
  }
  return level;
}

}  // namespace qserv::resilience
