#include "src/core/server.hpp"

#include <algorithm>
#include <atomic>

#include "src/core/frame_arena.hpp"
#include "src/core/invariant_checker.hpp"
#include "src/core/lock_manager.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/recovery/blackbox.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/replay.hpp"
#include "src/resilience/watchdog.hpp"
#include "src/util/check.hpp"

namespace qserv::core {

const char* lock_policy_name(LockPolicy p) {
  switch (p) {
    case LockPolicy::kNone: return "none";
    case LockPolicy::kConservative: return "conservative";
    case LockPolicy::kOptimized: return "optimized";
  }
  return "?";
}

const char* assign_policy_name(AssignPolicy p) {
  switch (p) {
    case AssignPolicy::kBlock: return "block";
    case AssignPolicy::kRegion: return "region";
  }
  return "?";
}

Server::Server(vt::Platform& platform, net::Transport& net,
               const spatial::GameMap& map, ServerConfig cfg)
    : platform_(platform),
      net_(net),
      cfg_(cfg),
      world_(map, sim::World::Config{cfg.areanode_depth, cfg.seed}, &platform,
             cfg.costs),
      global_events_(platform),
      registry_(platform, cfg_),
      governor_(cfg_.resilience) {
  QSERV_CHECK(cfg.threads >= 1 && cfg.threads <= 64);
  lock_manager_ =
      std::make_unique<LockManager>(platform, world_.tree(), cfg.costs);
  // Entity storage must never reallocate or change size once clients
  // join: concurrent readers hold references and call get() during
  // request processing, so connect-time spawns may only pop free slots.
  world_.reserve_entities(world_.active_entities() +
                          static_cast<size_t>(cfg.max_clients) + 256);
  if (cfg.check_invariants)
    invariants_ = std::make_unique<InvariantChecker>(registry_, world_);
  const int n = cfg.threads;
  stats_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sockets_.push_back(net.open(static_cast<uint16_t>(cfg.base_port + i)));
    selectors_.push_back(net.make_selector());
    selectors_.back()->add(*sockets_.back());
  }
  // Recovery exists only when enabled: its journal points draw
  // serialization indexes, so its presence is part of replay determinism.
  if (cfg.recovery.enabled) {
    recorder_ = std::make_unique<recovery::FlightRecorder>(
        cfg.recovery, static_cast<uint32_t>(cfg.threads), cfg.seed);
    checkpoints_ = std::make_unique<recovery::CheckpointManager>();
    blackbox_ = std::make_unique<recovery::BlackBox>(cfg.recovery.dump_dir);
    map_text_ = map.serialize();
  }
  // The per-thread frame scratch, built over everything above.
  arenas_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    arenas_.push_back(std::make_unique<FrameArena>());
}

Server::~Server() = default;

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& sel : selectors_) sel->poke();
}

uint16_t Server::port_for_client(int ordinal, int expected_players) const {
  // Static block assignment (§3.1): the first expected/T players go to
  // thread 0, the next block to thread 1, and so on.
  const int t = std::clamp(ordinal * cfg_.threads / std::max(1, expected_players),
                           0, cfg_.threads - 1);
  return static_cast<uint16_t>(cfg_.base_port + t);
}

Breakdown Server::total_breakdown() const {
  Breakdown b;
  for (const auto& s : stats_) b += s.breakdown;
  return b;
}

LockStats Server::total_lock_stats() const {
  LockStats l;
  for (const auto& s : stats_) l += s.locks;
  return l;
}

uint64_t Server::total_replies() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.replies_sent;
  return n;
}

uint64_t Server::total_requests() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.requests_processed;
  return n;
}

uint64_t Server::total_moves_rate_limited() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.moves_rate_limited;
  return n;
}

uint64_t Server::total_packets_oversized() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.packets_oversized;
  return n;
}

uint64_t Server::total_moves_coalesced() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.moves_coalesced;
  return n;
}

void Server::reset_stats() {
  for (auto& s : stats_) s.reset();
  frame_lock_stats_.reset();
  // The per-run session counters are measurement state too: a warmup
  // boundary must zero reassignments/evictions/rejections or the
  // measurement window reports warmup work (resumed_clients survives —
  // restore happens before the window and is inspected after it).
  registry_.reset_run_counters();
}

uint64_t Server::frame_trace_dropped() const {
  uint64_t n = 0;
  for (const auto& s : stats_) n += s.frame_trace_dropped;
  return n;
}

void Server::attach_observability(obs::Tracer* tracer,
                                  obs::MetricsRegistry* metrics) {
  // Rebind unconditionally: span timestamps must come from *this* server's
  // platform clock, and a tracer reused across runs would otherwise keep a
  // pointer to a destroyed platform.
  if (tracer != nullptr) tracer->bind(platform_);
  attach_observability(tracer, metrics, 1, "server-thread-");
}

void Server::attach_observability(obs::Tracer* tracer,
                                  obs::MetricsRegistry* metrics,
                                  int trace_pid,
                                  const std::string& track_prefix) {
  tracer_ = tracer;
  metrics_ = metrics;
  for (size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].tracer = tracer;
    stats_[i].trace_track =
        tracer != nullptr
            ? tracer->make_track(track_prefix + std::to_string(i), trace_pid)
            : -1;
  }
  lock_manager_->set_metrics(metrics);
  frame_duration_ms_ =
      metrics != nullptr
          ? &metrics->histogram("server.frame_duration_ms", 1e-3)
          : nullptr;
  moves_per_frame_ = metrics != nullptr
                         ? &metrics->histogram("server.moves_per_frame", 0.5)
                         : nullptr;
}

void Server::record_frame_trace(ThreadStats& st, uint64_t frame_id,
                                int moves) {
  if (!frame_trace_enabled_ || governor_.at_least(resilience::kShedDebugWork))
    return;
  if (st.frame_trace.size() <
      static_cast<size_t>(std::max(0, cfg_.frame_trace_limit))) {
    st.frame_trace.emplace_back(frame_id, moves);
  } else {
    ++st.frame_trace_dropped;
  }
}

bool Server::watchdog_due(int self_tid) const {
  return watchdog_ != nullptr &&
         watchdog_->check_due(platform_.now(), self_tid);
}

uint64_t Server::invariant_violations() const {
  return invariants_ == nullptr ? 0 : invariants_->total_violations();
}

recovery::LoadError Server::restore_from(
    const std::vector<uint8_t>& image,
    const std::vector<uint8_t>& journal_image, RestoreStats* stats,
    uint32_t extra_out_seq_bump) {
  using recovery::LoadError;
  recovery::CheckpointData c;
  const LoadError err = recovery::decode_checkpoint(image, c);
  if (err != LoadError::kNone) return err;

  // Decode and validate the journal tail before touching any state: a
  // bad journal must leave this freshly constructed server untouched so
  // the caller can fall back to the checkpoint-only restore.
  recovery::JournalFile jf;
  recovery::JournalTail tail;
  if (!journal_image.empty()) {
    const LoadError jerr = recovery::decode_journal(journal_image, jf);
    if (jerr != LoadError::kNone) return jerr;
    if (!recovery::select_tail(jf, c.frame, tail).empty())
      return LoadError::kCorrupt;  // gap
  }

  // Detach cost charging for the whole restore: re-executed work already
  // paid its cost in the original timeline (re-charging would advance
  // virtual time), and a shard supervisor drives this from a platform
  // timer, outside any fiber.
  struct ChargingGuard {
    sim::World& w;
    vt::Platform* saved;
    explicit ChargingGuard(sim::World& world)
        : w(world), saved(world.exchange_platform(nullptr)) {}
    ~ChargingGuard() { w.exchange_platform(saved); }
  } charging_guard(world_);

  world_.reserve_entities(c.entity_storage);
  recovery::restore_world(c, world_);

  // Re-execute the tail against the restored world through the same
  // replayer qserv-replay runs, in checkpoint-era time (rebasing happens
  // after, off the last replayed frame), checking every frame digest. A
  // mismatch means the journal and checkpoint disagree; this
  // half-replayed server must then be discarded.
  const recovery::ReplayResult replay = recovery::replay_tail(world_, tail);
  if (replay.diverged) return LoadError::kReplayDiverged;
  recovery::advance_registry(tail, c);

  RestoreStats rs;
  rs.checkpoint_frame = c.frame;
  rs.tail_frames = replay.frames_checked;
  rs.tail_moves = replay.moves_applied;
  rs.tail_lifecycle = replay.lifecycle_applied;
  rs.digest_verified = !tail.empty();
  rs.resume_frame = tail.empty() ? c.frame : tail.back()->frame;
  const int64_t resume_t_ns =
      tail.empty() ? c.captured_at_ns
                   : tail.back()->world_t0_ns + tail.back()->world_dt_ns;

  // Map recorded-time onto restart-time: every absolute-time entity
  // field shifts by the same delta, so cooldowns, respawns and projectile
  // expiries keep their remaining durations. Anchored at the end of the
  // last replayed frame (the checkpoint capture time when no tail ran).
  world_.rebase_times(platform_.now() - vt::TimePoint{resume_t_ns});

  // Resume the frame/order counters and restart the world step's dt
  // clock at now.
  frames_ = rs.resume_frame;
  order_ctr_.store(c.next_order, std::memory_order_relaxed);
  last_world_ = platform_.now();

  // Replies sent during the tail advanced each channel's out-sequence
  // past the checkpointed value; a peer that saw them would discard
  // resumed packets re-using those sequences as old. Skip past the
  // frames the tail could have sent (plus slack for the loss-burst the
  // crash itself caused).
  const uint32_t out_seq_bump =
      (tail.empty() ? 0 : static_cast<uint32_t>(rs.tail_frames) + 8) +
      extra_out_seq_bump;

  vt::LockGuard g(registry_.mutex());
  for (const auto& r : c.clients) {
    const int slot_index = r.slot == recovery::kSlotBornInTail
                               ? registry_.find_free_locked()
                               : static_cast<int>(r.slot);
    if (slot_index < 0 ||
        slot_index >= static_cast<int>(registry_.slots().size()))
      continue;
    if (registry_.slot(slot_index).in_use) continue;
    const int owner =
        std::clamp(static_cast<int>(r.owner_thread), 0, cfg_.threads - 1);
    ClientSlot& cl = registry_.install_slot_locked(
        slot_index, r.remote_port, r.name, r.entity_id, owner,
        *sockets_[static_cast<size_t>(owner)], rs.resume_frame);
    // Stay silent until the peer makes contact. A peer that never
    // noticed the restart keeps sending moves on the restored channel
    // sequences and gets its reply then; a peer that noticed has reset
    // its channel and reconnects (resume swaps in a fresh channel).
    // Pushing a snapshot through the restored channel now would poison a
    // reset peer: it would accept the checkpointed (high) sequence and
    // then discard the fresh resume channel's low sequences as
    // duplicates.
    cl.awaiting_resume = true;
    cl.last_seq = r.last_seq;
    cl.last_move_time_ns = r.last_move_time_ns;
    cl.chan->restore_state(r.chan_out_seq + out_seq_bump, r.chan_in_seq,
                           r.chan_in_acked);
  }
  for (const uint16_t p : c.evicted_ports) registry_.remember_evicted_locked(p);
  registry_.set_restored();
  if (stats != nullptr) *stats = rs;
  return LoadError::kNone;
}

bool Server::extract_session(uint16_t port, SessionTransfer& out) {
  vt::LockGuard g(registry_.mutex());
  const int idx = registry_.index_of_port_locked(port);
  if (idx < 0) return false;
  ClientSlot& cl = registry_.slot(idx);
  if (!cl.in_use || cl.pending_spawn || cl.pending_disconnect) return false;
  sim::Entity* e = world_.get(cl.entity_id);
  if (e == nullptr) return false;
  out.name = cl.name;
  out.remote_port = cl.remote_port;
  out.last_seq = cl.last_seq;
  out.last_move_time_ns = cl.last_move_time_ns;
  if (cl.chan != nullptr) {
    out.chan_out_seq = cl.chan->out_sequence();
    out.chan_in_seq = cl.chan->in_sequence();
    out.chan_in_acked = cl.chan->peer_acked();
  }
  out.state = recovery::capture_handoff_state(*e);
  journal_lifecycle(recovery::RecordKind::kHandoffOut, 0, port, cl.entity_id,
                    platform_.now().ns, cl.name);
  // Master window: workers idle at the barrier, no list locks needed
  // (same argument as checkpoint capture).
  world_.remove_entity(cl.entity_id);
  registry_.unbind_port_locked(port);
  registry_.release_slot_locked(cl);
  ++registry_.counters.handoffs_out;
  return true;
}

bool Server::adopt_session(const SessionTransfer& t) {
  vt::LockGuard g(registry_.mutex());
  // Capacity and port checks come before the spawn: a failed adoption
  // must not consume world RNG or the replay diverges.
  if (registry_.index_of_port_locked(t.remote_port) >= 0) return false;
  const int idx = registry_.find_free_locked();
  if (idx < 0) return false;
  const sim::Entity& e = recovery::adopt_player(world_, t.name, t.state);
  const int owner = idx % std::max(1, cfg_.threads);
  ClientSlot& cl = registry_.install_slot_locked(
      idx, t.remote_port, t.name, e.id, owner,
      *sockets_[static_cast<size_t>(owner)], frames_);
  cl.last_seq = t.last_seq;
  cl.last_move_time_ns = t.last_move_time_ns;
  cl.chan->restore_state(t.chan_out_seq, t.chan_in_seq, t.chan_in_acked);
  // The next snapshot re-teaches the peer its new server port; the
  // forced full snapshot (baseline 0) makes it self-contained. It is
  // queued before the peer sends here: the redirect must reach it
  // proactively or it keeps addressing the old shard.
  cl.notify_port = true;
  cl.pending_reply = true;
  registry_.queue_reply(cl);
  journal_lifecycle(recovery::RecordKind::kHandoffIn, 0, t.remote_port, e.id,
                    platform_.now().ns, t.name, &t.state);
  ++registry_.counters.handoffs_in;
  return true;
}

void Server::world_step(ThreadStats& st) {
  PhaseScope world(platform_, st, Phase::kWorld,
                   static_cast<int64_t>(frames_));
  const vt::TimePoint t0 = world.start();
  vt::Duration dt = t0 - last_world_;
  // Clamp: the first frame (and long idle gaps) must not produce a huge
  // physics step.
  dt.ns = std::clamp<int64_t>(dt.ns, 0, vt::millis(100).ns);
  last_world_ = t0;
  last_world_dt_ = dt;
  // The tick is a journaled, serialization-indexed mutation, so replay
  // interleaves it correctly with lifecycle ops applied between frames.
  journal_world_step(static_cast<int>(&st - stats_.data()), t0, dt);
  world_.world_phase(t0, dt, global_events_);
}

}  // namespace qserv::core
