// The global state buffer (§3.3): game events produced during the world
// and request-processing phases, protected by a single lock, used to
// update every client's reply buffer, and cleared by the master at the
// end of each frame. Also the per-client reply message buffers (one lock
// each).
#pragma once

#include <memory>
#include <vector>

#include "src/net/protocol.hpp"
#include "src/sim/world.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::core {

// One frame's global events, sealed into an immutable shared block so N
// reply buffers can reference it with one refcount bump each instead of
// N element-wise copies. Null or empty means "no events this frame".
using SealedEvents = std::shared_ptr<const std::vector<net::GameEvent>>;

class GlobalStateBuffer : public sim::EventSink {
 public:
  explicit GlobalStateBuffer(vt::Platform& platform)
      : mu_(platform.make_mutex("global-state")) {}

  // All accesses are synchronized with the single lock (§3.3).
  void emit(const net::GameEvent& e) override {
    vt::LockGuard g(*mu_);
    events_.push_back(e);
  }

  // Seals the current frame's events into an immutable shared block and
  // leaves the live buffer empty (the master's end-of-frame clear() then
  // finds nothing to do). Called once per frame at the flip into the
  // reply phase, single-threaded. Blocks are pooled: a pool entry whose
  // previous frame's readers have all let go (use_count()==1) is reused,
  // so steady state allocates nothing.
  SealedEvents seal_frame() {
    vt::LockGuard g(*mu_);
    std::shared_ptr<std::vector<net::GameEvent>>* slot = nullptr;
    for (auto& pooled : seal_pool_) {
      if (pooled.use_count() == 1) {  // last frame's readers all let go
        slot = &pooled;
        break;
      }
    }
    if (slot == nullptr) {
      seal_pool_.push_back(std::make_shared<std::vector<net::GameEvent>>());
      slot = &seal_pool_.back();
    }
    (*slot)->clear();
    (*slot)->swap(events_);  // events_ keeps the block's old capacity
    return *slot;            // converts to const; writers never touch it again
  }

  // Master-only, at frame end.
  void clear() {
    vt::LockGuard g(*mu_);
    events_.clear();
  }

  const vt::Mutex& mutex() const { return *mu_; }

 private:
  mutable std::unique_ptr<vt::Mutex> mu_;
  std::vector<net::GameEvent> events_;
  std::vector<std::shared_ptr<std::vector<net::GameEvent>>> seal_pool_;
};

// Per-client reply message buffer: events queued for a client while it is
// not being replied to, flushed into its next snapshot. One lock per
// buffer (§3.3).
class ReplyBuffer {
 public:
  explicit ReplyBuffer(vt::Platform& platform)
      : mu_(platform.make_mutex("reply-buffer")) {}

  // Queues a sealed frame block by reference: one refcount bump instead
  // of copying the events, the point of GlobalStateBuffer::seal_frame().
  void append_block(const SealedEvents& block) {
    if (!block || block->empty()) return;
    vt::LockGuard g(*mu_);
    blocks_.push_back(block);
  }

  // Drains the buffered frames' events into `out` (the snapshot's event
  // list), oldest frame first.
  void drain_into(std::vector<net::GameEvent>& out) {
    vt::LockGuard g(*mu_);
    for (const auto& b : blocks_) out.insert(out.end(), b->begin(), b->end());
    blocks_.clear();
  }

  size_t size() const {
    vt::LockGuard g(*mu_);
    size_t n = 0;
    for (const auto& b : blocks_) n += b->size();
    return n;
  }

 private:
  mutable std::unique_ptr<vt::Mutex> mu_;
  std::vector<SealedEvents> blocks_;
};

}  // namespace qserv::core
