#include "src/shard/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/obs/fleet.hpp"
#include "src/recovery/journal.hpp"
#include "src/shard/manager.hpp"
#include "src/sim/entity.hpp"
#include "src/sim/world.hpp"
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
      index_(index),
      mailbox_(platform, mgr.config().mailbox_capacity) {
  build();
}

Shard::~Shard() = default;

void Shard::build() {
  // The old generation unbinds its ports before the new one binds them.
  server_.reset();
  pending_redirects_.clear();
  server_ =
      std::make_unique<core::ParallelServer>(platform_, net_, map_, cfg_);
  server_->add_frame_hook(this);
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

void Shard::on_master_window(int /*tid*/, vt::TimePoint /*frame_start*/,
                             core::ThreadStats& /*st*/) {
  adopt_inbound();
  migrate_outbound();
  rearm_redirects();
}

void Shard::on_frame_end(vt::TimePoint /*frame_start*/, int /*moves*/,
                         core::ThreadStats& /*st*/) {
  // Master context, workers at the barrier: plain engine reads are safe
  // here, and publishing them as the heartbeat atomics is the ONLY way
  // the supervisor may observe this engine from its own thread.
  beat_clients_.store(server_->connected_clients(),
                      std::memory_order_release);
  beat_invariants_.store(server_->invariant_violations(),
                         std::memory_order_release);
  beat_at_ns_.store(platform_.now().ns, std::memory_order_release);
}

void Shard::on_idle_wait(int /*tid*/) {
  // Liveness-only beat: any worker may land here concurrently, so only
  // the timestamp refreshes (one atomic store); the client/invariant
  // fields keep their last frame-end values. Without it, an engine
  // starved of traffic (a partition severing all of its clients) runs no
  // frames and would read as wedged to the supervisor.
  beat_at_ns_.store(platform_.now().ns, std::memory_order_release);
}

void Shard::adopt_inbound() {
  if (retry_.empty() && mailbox_.empty()) return;
  std::vector<core::Server::SessionTransfer> incoming;
  incoming.swap(retry_);
  for (core::Server::SessionTransfer& t : mailbox_.drain())
    incoming.push_back(std::move(t));
  for (core::Server::SessionTransfer& t : incoming) {
    if (server_->adopt_session(t)) {
      if (t.flow_id != 0) {
        if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
          o->on_handoff_in(index_, t.flow_id);
      }
      // Arm the redirect with the POST-adopt clock: adopt_session stamps
      // the slot's last_heard_ns with now(), which under virtual time may
      // already be past this window's start, and rearm_redirects drops
      // entries once heard > armed-at.
      pending_redirects_.emplace_back(t.remote_port, platform_.now().ns);
    } else if (++t.adopt_retries <= kHandoffRetryBudget ||
               t.source_shard < 0 || t.source_shard == index_ ||
               t.source_shard >= mgr_.shards() ||
               mgr_.shard(t.source_shard).down()) {
      // Registry momentarily full (or port briefly still bound): hold
      // the session and retry next window rather than lose the client.
      retry_.push_back(std::move(t));
    } else {
      // Retry budget exhausted and the source shard is still alive:
      // bounce the session back where it came from instead of stranding
      // it in this shard's retry queue forever.
      const int back = t.source_shard;
      t.adopt_retries = 0;
      t.source_shard = index_;
      mgr_.count_handoff_return();
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr)
        o->on_handoff_returned(index_, back, t.flow_id,
                               /*supervisor_ctx=*/false);
      mgr_.post_handoff(back, std::move(t));
    }
  }
}

void Shard::migrate_outbound() {
  // Two phases to respect the non-recursive registry mutex: collect
  // (port, entity) candidates under the lock, then extract_session —
  // which re-locks internally — per crossing session.
  std::vector<std::pair<uint16_t, uint32_t>> candidates;
  {
    core::ClientRegistry& reg = server_->registry();
    vt::LockGuard g(reg.mutex());
    for (const core::ClientSlot& cl : reg.slots()) {
      if (!cl.in_use || cl.pending_spawn || cl.pending_disconnect ||
          cl.awaiting_resume)
        continue;
      candidates.emplace_back(cl.remote_port, cl.entity_id);
    }
  }
  const ShardRouter& router = mgr_.router();
  for (const auto& [port, entity_id] : candidates) {
    const sim::Entity* e = server_->world().get(entity_id);
    if (e == nullptr) continue;
    const int target = router.home_for(index_, e->origin);
    if (target == index_) continue;
    // The owner of that slab is down (shed): keep serving the session
    // here rather than bouncing it around the fleet.
    if (mgr_.shard(target).down()) continue;
    core::Server::SessionTransfer t;
    if (server_->extract_session(port, t)) {
      t.source_shard = index_;  // return address for containment paths
      if (obs::FleetObs* o = mgr_.observer(); o != nullptr) {
        t.flow_id = mgr_.next_flow_id();
        o->on_handoff_out(index_, target, t.flow_id);
      }
      mgr_.post_handoff(target, std::move(t));
    }
  }
}

void Shard::rearm_redirects() {
  if (pending_redirects_.empty()) return;
  core::ClientRegistry& reg = server_->registry();
  vt::LockGuard g(reg.mutex());
  std::erase_if(pending_redirects_, [&](const std::pair<uint16_t, int64_t>&
                                            pr) {
    const int idx = reg.index_of_port_locked(pr.first);
    if (idx < 0) return true;  // migrated again or evicted; stop re-arming
    core::ClientSlot& cl = reg.slot(idx);
    if (!cl.in_use) return true;
    const int64_t heard =
        std::atomic_ref<int64_t>(cl.last_heard_ns).load(
            std::memory_order_relaxed);
    if (heard > pr.second) return true;  // peer now addresses this engine
    // Teaching snapshot may have been lost: keep re-arming the one-shot
    // port notification (with a queued reply) until the peer shows up.
    cl.notify_port = true;
    cl.pending_reply = true;
    reg.queue_reply(cl);
    return false;
  });
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
    out.mode = out.stats.tail_frames > 0 ? RestoreMode::kTailReplay
                                         : RestoreMode::kCheckpointOnly;
    return out;
  }
  // restore_from refuses a bad image or a torn/gapped tail before it
  // touches any state; only a diverged tail leaves a half-replayed world.
  if (out.error == recovery::LoadError::kReplayDiverged) build();
  if (server_->restore_from(image, {}, nullptr, seq_bump) ==
      recovery::LoadError::kNone)
    out.mode = RestoreMode::kCheckpointOnly;
  return out;
}

Shard::RestoreOutcome Shard::rebuild_and_restore() {
  QSERV_CHECK(quiesced());
  auto [image, journal] = capture_images();
  const auto t0 = std::chrono::steady_clock::now();
  RestoreOutcome out;
  if (!image.empty()) out = restore_images(image, journal);
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
  ++restores_;
  return out;
}

std::vector<core::Server::SessionTransfer> Shard::shed() {
  QSERV_CHECK(quiesced());
  capture_images();
  // Transfers still waiting for adoption were never part of any image.
  std::vector<core::Server::SessionTransfer> out = std::move(retry_);
  retry_.clear();
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
  down_.store(true, std::memory_order_release);
  return out;
}

}  // namespace qserv::shard
