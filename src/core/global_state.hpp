// The global state buffer (§3.3): game events produced during the world
// and request-processing phases, protected by a single lock, and emptied
// once per frame (where the paper's master clears it at frame end). In
// place of the paper's per-client reply buffers (one lock each, updated
// for every client every frame), each sealed frame goes to one
// frame-indexed event log, encoded once into wire records: a client keeps
// the frame its events are complete through, and its next reply copies
// the log after that frame as one span (DESIGN.md §15.3).
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/sim/world.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::core {

class GlobalStateBuffer : public sim::EventSink {
 public:
  explicit GlobalStateBuffer(vt::Platform& platform)
      : mu_(platform.make_mutex("global-state")) {}

  // Emission is synchronized with the single lock (§3.3); the log below
  // is written only at the single-threaded flip.
  void emit(const net::GameEvent& e) override {
    vt::LockGuard g(*mu_);
    events_.push_back(e);
  }

  // Encodes the current frame's events onto the log under `frame` (a
  // frame without events adds no entry) and leaves the live buffer empty.
  // Returns the frame's event count. Called once per frame at the flip
  // into the reply phase, single-threaded. The log keeps its capacity, so
  // steady state allocates nothing.
  size_t seal_frame(uint64_t frame) {
    vt::LockGuard g(*mu_);
    const size_t n = events_.size();
    if (n == 0) return 0;
    for (const net::GameEvent& e : events_) net::write_event(log_, e);
    frames_.push_back({frame, log_.size()});
    events_.clear();
    return n;
  }

  // The events of every logged frame after `through`, oldest first, in
  // wire form. Read-only: the reply threads call it concurrently; the
  // span is valid until the next seal or trim.
  net::EventSpan events_after(uint64_t through) const {
    const auto it = first_after(through);
    const size_t begin = it == frames_.begin() ? 0 : std::prev(it)->end;
    return {log_.data().data() + begin,
            (log_.size() - begin) / net::kGameEventWireBytes};
  }

  // True once the log has doubled since the last trim. Finding what to
  // trim takes a walk over the clients, so it is paid once per doubling,
  // never once per frame.
  bool trim_due() const { return frames_.size() >= trim_at_; }

  // Drops the logged frames up to and including `through`: every client's
  // events are complete through it. Single-threaded, at the flip.
  void trim_through(uint64_t through) {
    const auto it = first_after(through);
    if (it != frames_.begin()) {
      const size_t cut = std::prev(it)->end;
      log_.erase_front(cut);
      frames_.erase(frames_.begin(), it);
      for (LoggedFrame& f : frames_) f.end -= cut;
    }
    trim_at_ = std::max(kMinTrimFrames, 2 * frames_.size());
  }

  size_t logged_frames() const { return frames_.size(); }

 private:
  static constexpr size_t kMinTrimFrames = 64;
  struct LoggedFrame {
    uint64_t frame;
    size_t end;  // one past the frame's last byte in log_
  };
  std::vector<LoggedFrame>::const_iterator first_after(uint64_t f) const {
    return std::upper_bound(
        frames_.begin(), frames_.end(), f,
        [](uint64_t x, const LoggedFrame& b) { return x < b.frame; });
  }

  std::unique_ptr<vt::Mutex> mu_;
  std::vector<net::GameEvent> events_;  // the open frame's, under mu_
  net::ByteWriter log_;                 // sealed frames' event records
  std::vector<LoggedFrame> frames_;     // ascending frame ids
  size_t trim_at_ = kMinTrimFrames;
};

}  // namespace qserv::core
