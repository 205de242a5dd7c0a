// One shard: a failure domain wrapping one ParallelServer *generation*.
// The Shard object itself is permanent for the run; the engine inside it
// is rebuilt by the supervisor after a crash — checkpoint + journal tail
// are captured from the dead generation, a fresh engine is constructed on
// the same ports/seed, restored, and started. Heartbeat state lives here
// (not in the engine) as atomics, because the supervisor reads it from
// outside the engine's threads while the master window publishes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/parallel_server.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/shard/engine_hook.hpp"

namespace qserv::shard {

class ShardManager;

// Which step of the checkpoint-restore fallback chain produced the new
// engine generation:
//   tail-replay      checkpoint + digest-verified journal tail
//   checkpoint-only  checkpoint restored, tail unusable (diverged/absent)
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

class Shard {
 public:
  Shard(vt::Platform& platform, net::Transport& net,
        const spatial::GameMap& map, ShardManager& mgr,
        core::ServerConfig cfg, int index);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();
  void request_stop();

  int index() const { return index_; }
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

  // --- heartbeat (hook publishes from the master window) ---
  void publish_heartbeat(int64_t now_ns, int clients,
                         uint64_t invariant_violations);
  // Liveness-only beat from a worker's idle select() timeout: a starved
  // engine (network partition, no traffic) runs no frames at all, but it
  // is alive — only the timestamp refreshes, the client/invariant fields
  // keep their last frame-end values.
  void publish_idle_beat(int64_t now_ns) {
    beat_at_ns_.store(now_ns, std::memory_order_release);
  }
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

  struct RestoreOutcome {
    bool ok = false;
    // Journal-tail replay succeeded (false = checkpoint-only fallback or
    // no checkpoint existed yet and the engine came back empty).
    bool used_tail = false;
    bool had_checkpoint = false;
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
  // on kReplayDiverged, fresh empty rebuild when the checkpoint itself is
  // unusable (checksum/corrupt/truncated) or was never taken — then
  // starts the new generation. Every step is reported through the fleet
  // observer (on_restore carries the mode) and the supervisor report.
  RestoreOutcome rebuild_and_restore();

  // Shed path: recovers the dead generation's sessions into transfers
  // for neighbor shards (checkpoint + journal tail through a throwaway
  // restored engine), then marks the shard permanently down. Empty when
  // no checkpoint existed.
  std::vector<core::Server::SessionTransfer> shed();

 private:
  // (checkpoint image, journal image) of the current generation; both
  // empty when recovery never checkpointed.
  std::pair<std::vector<uint8_t>, std::vector<uint8_t>> capture_images();

  // Tears down the current generation, if any, and constructs a fresh
  // engine + hook (not started).
  void build();

  // Restores `image` + `journal` into a fresh generation and walks the
  // first fallback rung: a diverged tail has already mutated that
  // engine's world but leaves the checkpoint intact, so build again and
  // restore the checkpoint alone. mode stays kNone when neither took;
  // error is the first error hit.
  RestoreOutcome restore_images(const std::vector<uint8_t>& image,
                                const std::vector<uint8_t>& journal);

  vt::Platform& platform_;
  net::Transport& net_;
  const spatial::GameMap& map_;
  ShardManager& mgr_;
  core::ServerConfig cfg_;
  int index_;

  std::unique_ptr<core::ParallelServer> server_;
  std::unique_ptr<ShardEngineHook> hook_;

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
