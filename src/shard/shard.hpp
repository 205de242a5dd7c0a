// One shard: a failure domain wrapping one ParallelServer *generation*.
// The Shard object itself is permanent for the run; the engine inside it
// is rebuilt by the supervisor after a crash — checkpoint + journal tail
// are captured from the dead generation, a fresh engine is constructed on
// the same ports/seed, restored, and started.
//
// The Shard is also the FrameHook of every generation it builds. From the
// engine's master window (the only single-threaded point of the frame) it
// drains its own inbound handoff mailbox, extracts sessions whose entities
// wandered past its slab toward their new home, and re-arms redirects;
// at frame end and on every idle select() timeout it publishes its
// heartbeat. Heartbeat state lives here (not in the engine) as atomics,
// because the supervisor reads it from outside the engine's threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/frame_hooks.hpp"
#include "src/core/parallel_server.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/shard/mailbox.hpp"

namespace qserv::shard {

class ShardManager;

// Which step of the checkpoint-restore fallback chain produced the new
// engine generation:
//   tail-replay      checkpoint + digest-verified journal tail
//   checkpoint-only  checkpoint restored, tail unusable (diverged, torn,
//                    gapped) or empty
//   fresh-rebuild    checkpoint unusable (corrupt/torn) or never taken;
//                    the engine comes back empty, clients reconnect via
//                    the silence backstop and every rejoin is served a
//                    forced full snapshot (baseline 0 by construction)
enum class RestoreMode : uint8_t {
  kNone = 0,
  kTailReplay,
  kCheckpointOnly,
  kFreshRebuild,
};
const char* restore_mode_name(RestoreMode m);

class Shard final : public core::FrameHook {
 public:
  Shard(vt::Platform& platform, net::Transport& net,
        const spatial::GameMap& map, ShardManager& mgr,
        core::ServerConfig cfg, int index);
  ~Shard() override;

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();
  void request_stop();

  int index() const { return index_; }
  // Inbound cross-shard transfers; drained by this shard's master window.
  HandoffMailbox& mailbox() { return mailbox_; }
  core::ParallelServer* server() { return server_.get(); }
  const core::ParallelServer* server() const { return server_.get(); }

  // A shed shard stays down: no engine, sessions relocated.
  bool down() const { return down_.load(std::memory_order_acquire); }

  // --- fault injection ---
  // Models a shard crash: raises the crash flag (the supervisor's
  // escalation cue) and halts the engine's loops. State reachable
  // afterwards is only what recovery persisted — the supervisor restores
  // from checkpoint + journal, never from the dead engine's live world.
  void inject_crash();
  bool crash_flagged() const {
    return crashed_.load(std::memory_order_acquire);
  }
  // Chaos hook: flip one byte in the next captured checkpoint image —
  // models a torn/corrupted on-disk image. The loader's content checksum
  // rejects it and the restore falls through to a fresh rebuild.
  void corrupt_next_capture() {
    corrupt_next_.store(true, std::memory_order_release);
  }

  // --- heartbeat (published by on_frame_end / on_idle_wait) ---
  int64_t beat_at_ns() const {
    return beat_at_ns_.load(std::memory_order_acquire);
  }
  int beat_clients() const {
    return beat_clients_.load(std::memory_order_acquire);
  }
  uint64_t beat_invariants() const {
    return beat_invariants_.load(std::memory_order_acquire);
  }

  // True once every worker fiber of the current generation has exited (a
  // stopped or never-started engine is quiescent).
  bool quiesced() const {
    return server_ == nullptr || server_->active_workers() == 0;
  }

  // Successful supervised restorations of this shard so far.
  int restores() const { return restores_; }
  // Inbound transfers whose adoption was refused, awaiting the next
  // master window (or the shed path). Plain read: call where no master
  // window of this shard runs concurrently (a stopped fleet, or a timer
  // under SimPlatform).
  size_t retry_depth() const { return retry_.size(); }

  struct RestoreOutcome {
    RestoreMode mode = RestoreMode::kNone;
    double pause_ms = 0.0;  // host-clock rebuild+restore cost
    core::Server::RestoreStats stats{};
    // First error hit walking the fallback chain (kNone when the first
    // step succeeded); the chain still ends in a live generation.
    recovery::LoadError error{};
  };
  // Quarantine exit path. Caller must see quiesced(). Captures the dead
  // generation's checkpoint + journal, rebuilds the engine and walks the
  // restore fallback chain — digest-verified tail replay, checkpoint-only
  // when the tail is unusable (diverged, torn, gapped), fresh empty
  // rebuild when the checkpoint itself is unusable (checksum/corrupt/
  // truncated) or was never taken — then starts the new generation. It
  // always ends in a live generation; the mode says which rung produced
  // it (the supervisor reports it to the fleet observer and its Report).
  RestoreOutcome rebuild_and_restore();

  // Shed path: recovers the dead generation's sessions into transfers
  // for neighbor shards (checkpoint + journal tail through a throwaway
  // restored engine), adds the transfers still queued for adoption
  // retry, then marks the shard permanently down.
  std::vector<core::Server::SessionTransfer> shed();

 private:
  // (checkpoint image, journal image) of the current generation; both
  // empty when recovery never checkpointed.
  std::pair<std::vector<uint8_t>, std::vector<uint8_t>> capture_images();

  // Tears down the current generation, if any, and constructs a fresh
  // engine (not started) with this shard registered as its hook. Pending
  // redirects name ports of the old engine and go with it; the adoption
  // retry queue is shard state and carries over to the new generation.
  void build();

  // Restores `image` + `journal` into a fresh generation and walks the
  // first fallback rung: restore the checkpoint alone. A diverged tail
  // has already mutated the engine's world, so that retry runs on a
  // rebuilt engine; every other error left the engine untouched and the
  // retry reuses it. mode stays kNone when neither took; error is the
  // first error hit.
  RestoreOutcome restore_images(const std::vector<uint8_t>& image,
                                const std::vector<uint8_t>& journal);

  // --- FrameHook (engine threads) ---
  void on_master_window(int tid, vt::TimePoint frame_start,
                        core::ThreadStats& st) override;
  void on_frame_end(vt::TimePoint frame_start, int moves,
                    core::ThreadStats& st) override;
  void on_idle_wait(int tid) override;

  // Master-window handoff duties, in this order.
  void adopt_inbound();
  void migrate_outbound();
  void rearm_redirects();

  vt::Platform& platform_;
  net::Transport& net_;
  const spatial::GameMap& map_;
  ShardManager& mgr_;
  core::ServerConfig cfg_;
  int index_;

  // Built before the first engine generation, so the mailbox mutex is
  // created ahead of the engine's.
  HandoffMailbox mailbox_;
  // Adoptions refused (registry momentarily full) retry next window, on
  // whichever generation runs it; shed() hands them to the neighbors.
  std::vector<core::Server::SessionTransfer> retry_;
  // Per-generation state, cleared by build(): ports adopted at time t
  // whose peers have not yet been heard from on this engine; the redirect
  // snapshot re-arms every window until then (notify_port is one-shot and
  // the teaching snapshot may be lost).
  std::vector<std::pair<uint16_t, int64_t>> pending_redirects_;
  std::unique_ptr<core::ParallelServer> server_;

  // Stash of the last real capture; survives a failed-restore generation
  // so the shed path can still reach the dead engine's state.
  std::vector<uint8_t> cap_ckpt_;
  std::vector<uint8_t> cap_jrnl_;

  std::atomic<bool> crashed_{false};
  std::atomic<bool> corrupt_next_{false};
  std::atomic<bool> down_{false};
  std::atomic<int64_t> beat_at_ns_{0};
  std::atomic<int> beat_clients_{0};
  std::atomic<uint64_t> beat_invariants_{0};
  int restores_ = 0;
};

}  // namespace qserv::shard
