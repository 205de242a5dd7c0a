// The recovery subsystem's attachment to the frame engine: a FrameHook +
// LifecycleObserver that journals every serialization-indexed mutation,
// seals frames with world digests, takes periodic checkpoints, and serves
// black-box dumps. Constructed (and registered) only when
// cfg.recovery.enabled — callback *absence* is what keeps a non-recovery
// run's serialization-index stream identical to the pre-hook engine.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/frame_hooks.hpp"
#include "src/recovery/blackbox.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/journal.hpp"

namespace qserv::core {
class Server;
}
namespace qserv::spatial {
class GameMap;
}

namespace qserv::recovery {

class ServerRecovery final : public core::FrameHook,
                             public core::LifecycleObserver {
 public:
  ServerRecovery(core::Server& server, const spatial::GameMap& map);

  ServerRecovery(const ServerRecovery&) = delete;
  ServerRecovery& operator=(const ServerRecovery&) = delete;

  const FlightRecorder* recorder() const { return &recorder_; }
  const CheckpointManager* checkpoints() const { return &checkpoints_; }
  const BlackBox* blackbox() const { return &blackbox_; }

  // Writes a black-box dump (latest checkpoint, journal tail, trace,
  // meta) now; returns the dump directory or "" on I/O failure.
  std::string dump(const std::string& label, const std::string& why);

  // Hot-restart handoff capture: encodes the engine's current state as a
  // qserv-ckpt-v1 blob, off the periodic schedule. Call only with every
  // worker quiesced (after request_stop() drains) — the capture walks
  // live world and registry state unlocked.
  std::vector<uint8_t> capture_now_encoded();

  // Cross-shard handoff journaling (master window only; the shard layer
  // calls these around extract_session/adopt_session so replay can
  // re-execute the migration deterministically).
  void record_handoff_out(uint16_t port, uint32_t entity,
                          const std::string& name);
  void record_handoff_in(uint16_t port, uint32_t entity,
                         const std::string& name, const HandoffState& hs);

  // --- FrameHook ---
  void on_world_tick(int tid, vt::TimePoint t0, vt::Duration dt) override;
  void on_move_executed(int tid, uint16_t port, uint32_t entity,
                        uint64_t order, vt::TimePoint t0,
                        const net::MoveCmd& cmd) override;
  void on_drop(int tid, uint16_t port, DropReason why) override;
  // Digest + journal seal + periodic checkpoint, after every mutation of
  // the frame.
  void on_frame_sealed() override;

  // --- LifecycleObserver (registry mutex held) ---
  void on_client_spawned(int owner, uint16_t port, uint32_t entity,
                         const std::string& name, int64_t t_ns) override;
  void on_client_disconnected(int owner, uint16_t port, uint32_t entity,
                              int64_t t_ns) override;
  void on_client_evicted(int owner, uint16_t port, uint32_t entity) override;

 private:
  CheckpointData make_checkpoint(uint64_t digest);

  core::Server& server_;
  std::string map_text_;  // GameMap::serialize(), embedded in checkpoints
  FlightRecorder recorder_;
  CheckpointManager checkpoints_;
  BlackBox blackbox_;
};

}  // namespace qserv::recovery
