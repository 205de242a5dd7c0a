#include "src/shard/shard.hpp"

#include <algorithm>
#include <chrono>

#include "src/obs/fleet.hpp"
#include "src/recovery/journal.hpp"
#include "src/shard/manager.hpp"
#include "src/util/check.hpp"

namespace qserv::shard {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Out-sequence headroom per prior restore of this shard. In a crash
// loop every generation dies before its first checkpoint, so each one
// restores the SAME stashed images — and without a growing bump each
// would re-send channel sequences an earlier generation already burned,
// which peers then discard as duplicates (stranding them: the adoption
// redirect after a shed rides those sequences too). A generation can
// only send replies on the stale stash until its own first checkpoint
// refreshes it (checkpoint_interval frames, default 64), so 512 per
// generation is comfortably past anything it may have used.
constexpr uint32_t kSeqBumpPerGeneration = 512;

}  // namespace

const char* restore_mode_name(RestoreMode m) {
  switch (m) {
    case RestoreMode::kNone: return "none";
    case RestoreMode::kTailReplay: return "tail-replay";
    case RestoreMode::kCheckpointOnly: return "checkpoint-only";
    case RestoreMode::kFreshRebuild: return "fresh-rebuild";
  }
  return "?";
}

Shard::Shard(vt::Platform& platform, net::Transport& net,
             const spatial::GameMap& map, ShardManager& mgr,
             core::ServerConfig cfg, int index)
    : platform_(platform),
      net_(net),
      map_(map),
      mgr_(mgr),
      cfg_(std::move(cfg)),
      index_(index) {
  build();
}

Shard::~Shard() = default;

void Shard::build() {
  // The old generation unbinds its ports before the new one binds them.
  server_.reset();
  hook_.reset();
  server_ =
      std::make_unique<core::ParallelServer>(platform_, net_, map_, cfg_);
  hook_ = std::make_unique<ShardEngineHook>(mgr_, index_, *server_);
  server_->add_frame_hook(hook_.get());
  crashed_.store(false, std::memory_order_release);
  // Fresh generation, fresh grace period: the supervisor's stall timer
  // must not count silence accrued by the previous generation.
  beat_clients_.store(0, std::memory_order_release);
  beat_invariants_.store(0, std::memory_order_release);
  beat_at_ns_.store(platform_.now().ns, std::memory_order_release);
}

void Shard::start() {
  QSERV_CHECK(server_ != nullptr);
  server_->start();
}

void Shard::request_stop() {
  if (server_ != nullptr) server_->request_stop();
}

void Shard::inject_crash() {
  crashed_.store(true, std::memory_order_release);
  if (server_ != nullptr) server_->request_stop();
}

void Shard::publish_heartbeat(int64_t now_ns, int clients,
                              uint64_t invariant_violations) {
  beat_clients_.store(clients, std::memory_order_release);
  beat_invariants_.store(invariant_violations, std::memory_order_release);
  beat_at_ns_.store(now_ns, std::memory_order_release);
}

std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
Shard::capture_images() {
  // Only overwrite the stash when this generation actually checkpointed:
  // a failed-restore generation (fresh, empty) must not clobber the dead
  // generation's images, which the shed path still needs.
  if (server_ != nullptr && server_->checkpoints() != nullptr &&
      server_->checkpoints()->has()) {
    cap_ckpt_ = server_->checkpoints()->latest();
    cap_jrnl_ = server_->recorder()->encode();
  }
  // Chaos hook: model a torn/corrupted on-disk image by flipping one byte
  // in the body (past the magic/version header, before the trailing
  // checksum words, so the content checksum — not kBadMagic — catches it).
  if (corrupt_next_.exchange(false, std::memory_order_acq_rel) &&
      cap_ckpt_.size() > 16) {
    cap_ckpt_[cap_ckpt_.size() / 2] ^= 0x40;
  }
  return {cap_ckpt_, cap_jrnl_};
}

Shard::RestoreOutcome Shard::restore_images(
    const std::vector<uint8_t>& image, const std::vector<uint8_t>& journal) {
  const uint32_t seq_bump =
      static_cast<uint32_t>(restores_) * kSeqBumpPerGeneration;
  RestoreOutcome out;
  build();
  out.error = server_->restore_from(image, journal, &out.stats, seq_bump);
  if (out.error == recovery::LoadError::kNone) {
    out.used_tail = out.stats.tail_frames > 0;
    out.mode = out.used_tail ? RestoreMode::kTailReplay
                             : RestoreMode::kCheckpointOnly;
  } else if (out.error == recovery::LoadError::kReplayDiverged) {
    build();
    if (server_->restore_from(image, {}, nullptr, seq_bump) ==
        recovery::LoadError::kNone)
      out.mode = RestoreMode::kCheckpointOnly;
  }
  return out;
}

Shard::RestoreOutcome Shard::rebuild_and_restore() {
  QSERV_CHECK(quiesced());
  auto [image, journal] = capture_images();
  const auto t0 = std::chrono::steady_clock::now();
  RestoreOutcome out;
  if (!image.empty()) out = restore_images(image, journal);
  out.had_checkpoint = !image.empty();
  if (out.mode == RestoreMode::kNone) {
    // Last rung of the fallback chain: no checkpoint was ever taken, or
    // it is unusable (checksum mismatch, truncation, corruption — or the
    // checkpoint-only retry also failed). Come back empty on a fresh
    // engine rather than staying down: the silence backstop reconnects
    // clients and every rejoin is served a forced full snapshot because
    // the fresh baseline is 0 by construction. The first error is
    // preserved in out.error for the journal/trace.
    build();
    out.stats = core::Server::RestoreStats{};
    out.mode = RestoreMode::kFreshRebuild;
  }
  // Either way this generation is about to go live: give the fleet
  // observer its pre-start window to re-attach tracer/metrics hooks, or
  // the restored shard would go dark for the rest of the run.
  if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
    o->on_engine_built(index_, *server_);
  server_->start();
  out.pause_ms = ms_since(t0);
  out.ok = true;
  ++restores_;
  return out;
}

std::vector<core::Server::SessionTransfer> Shard::shed() {
  QSERV_CHECK(quiesced());
  capture_images();
  std::vector<core::Server::SessionTransfer> out;
  // Throwaway engine: restore the dead generation's state just far
  // enough to extract every session, then tear it down. Never started,
  // so extract_session runs single-threaded by construction.
  if (!cap_ckpt_.empty() &&
      restore_images(cap_ckpt_, cap_jrnl_).mode != RestoreMode::kNone) {
    server_->detach_world_charging();
    std::vector<uint16_t> ports;
    {
      core::ClientRegistry& reg = server_->registry();
      vt::LockGuard g(reg.mutex());
      ports.reserve(reg.port_map().size());
      for (const auto& [port, idx] : reg.port_map()) ports.push_back(port);
    }
    std::sort(ports.begin(), ports.end());  // deterministic handoff order
    for (uint16_t port : ports) {
      core::Server::SessionTransfer t;
      if (server_->extract_session(port, t)) out.push_back(std::move(t));
    }
  }
  server_.reset();
  hook_.reset();
  down_.store(true, std::memory_order_release);
  return out;
}

}  // namespace qserv::shard
