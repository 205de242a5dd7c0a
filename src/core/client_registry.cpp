#include "src/core/client_registry.hpp"

#include <algorithm>
#include <atomic>

#include "src/recovery/checkpoint.hpp"

namespace qserv::core {

ClientRegistry::ClientRegistry(vt::Platform& platform, const ServerConfig& cfg)
    : platform_(platform), cfg_(cfg), mu_(platform.make_mutex("clients")) {
  slots_.resize(static_cast<size_t>(cfg.max_clients));
  reply_queues_.resize(static_cast<size_t>(cfg.threads));
  active_slots_.resize(static_cast<size_t>(cfg.threads));
}

ClientSlot* ClientRegistry::by_port(uint16_t port) {
  vt::LockGuard g(*mu_);
  const auto it = slot_by_port_.find(port);
  return it == slot_by_port_.end()
             ? nullptr
             : &slots_[static_cast<size_t>(it->second)];
}

int ClientRegistry::index_of_port_locked(uint16_t port) const {
  const auto it = slot_by_port_.find(port);
  return it == slot_by_port_.end() ? -1 : it->second;
}

int ClientRegistry::connected() const {
  int n = 0;
  for (const auto& c : slots_) n += c.in_use ? 1 : 0;
  return n;
}

int ClientRegistry::find_free_locked() const {
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
    if (!slots_[static_cast<size_t>(i)].in_use) return i;
  }
  return -1;
}

void ClientRegistry::fresh_session(ClientSlot& c) {
  std::atomic_ref<int64_t>(c.last_heard_ns)
      .store(platform_.now().ns, std::memory_order_relaxed);
  c.history.clear();
  c.client_baseline_frame = 0;
  c.bucket.configure(cfg_.resilience.move_rate_limit,
                     cfg_.resilience.move_burst);
  c.moves_since_scan = 0;
}

void ClientRegistry::init_pending_slot_locked(int slot_index, uint16_t port,
                                              int tid,
                                              const std::string& name) {
  slot_by_port_[port] = slot_index;
  ClientSlot& c = slots_[static_cast<size_t>(slot_index)];
  c.in_use = true;
  c.pending_spawn = true;
  c.connect_tid = tid;
  c.owner_thread = tid;  // provisional until the spawn picks the owner
  c.entity_id = 0;
  c.remote_port = port;
  c.name = name;
  c.last_seq = 0;
  c.last_move_time_ns = 0;
  fresh_session(c);
  pending_lifecycle_.push_back(slot_index);
}

void ClientRegistry::spawn_slot_locked(ClientSlot& c, uint32_t entity_id,
                                       int owner, net::Socket& owner_socket,
                                       uint64_t frame) {
  c.entity_id = entity_id;
  c.owner_thread = owner;
  c.chan = std::make_unique<net::NetChannel>(owner_socket, c.remote_port);
  c.events_through = frame;
  c.pending_spawn = false;
  count(c, +1);
}

void ClientRegistry::capture_session(const ClientSlot& c,
                                     recovery::SessionState& out) {
  out.remote_port = c.remote_port;
  out.name = c.name;
  out.last_seq = c.last_seq;
  out.last_move_time_ns = c.last_move_time_ns;
  if (c.chan != nullptr) {
    out.chan_out_seq = c.chan->out_sequence();
    out.chan_in_seq = c.chan->in_sequence();
    out.chan_in_acked = c.chan->peer_acked();
  }
}

ClientSlot& ClientRegistry::install_session_locked(
    int slot_index, const recovery::SessionState& s, uint32_t entity_id,
    int owner, net::Socket& owner_socket, uint64_t frame,
    uint32_t out_seq_bump) {
  ClientSlot& c = slots_[static_cast<size_t>(slot_index)];
  c.in_use = true;  // a free slot's flags are clear (release_slot_locked)
  c.entity_id = entity_id;
  c.remote_port = s.remote_port;
  c.name = s.name;
  c.owner_thread = owner;
  c.connect_tid = owner;
  c.last_seq = s.last_seq;
  c.last_move_time_ns = s.last_move_time_ns;
  c.events_through = frame;
  c.chan = std::make_unique<net::NetChannel>(owner_socket, s.remote_port);
  c.chan->restore_state(s.chan_out_seq + out_seq_bump, s.chan_in_seq,
                        s.chan_in_acked);
  fresh_session(c);
  slot_by_port_[s.remote_port] = slot_index;
  count(c, +1);
  return c;
}

void ClientRegistry::resume_slot_locked(ClientSlot& c,
                                        net::Socket& owner_socket,
                                        uint64_t frame) {
  c.awaiting_resume = false;
  c.pending_reply = false;
  c.notify_port = true;  // re-teach the owner port in the next snapshot
  c.last_seq = 0;        // the reconnected peer restarts its sequences
  c.last_move_time_ns = 0;
  c.events_through = frame;
  c.chan = std::make_unique<net::NetChannel>(owner_socket, c.remote_port);
  fresh_session(c);
  // The owner thread may be queueing its own clients right now; the
  // flip, single-threaded, queues this one.
  deferred_replies_.push_back(index_of(c));
}

void ClientRegistry::mark_disconnect_locked(ClientSlot& c) {
  if (c.pending_disconnect) return;
  count(c, -1);
  c.pending_disconnect = true;
  pending_lifecycle_.push_back(index_of(c));
}

void ClientRegistry::release_slot_locked(ClientSlot& c) {
  count(c, -1);
  c.in_use = false;
  c.chan.reset();
  c.history.clear();
  c.client_baseline_frame = 0;
  c.pending_reply = false;
  c.notify_port = false;
  c.reply_queue = -1;
  c.pending_spawn = false;
  c.pending_disconnect = false;
  c.awaiting_resume = false;
}

void ClientRegistry::migrate_slot_locked(ClientSlot& c, int new_owner,
                                         net::Socket& owner_socket) {
  count(c, -1);
  c.owner_thread = new_owner;
  count(c, +1);
  // Keep the netchan's sequencing state: the peer must see one
  // continuous stream across the migration.
  c.chan->rebind(owner_socket);
  // Force a snapshot carrying assigned_port even though the client may
  // have no request pending on the new owner (its moves may still be
  // going to the old port) — see the reply phase.
  c.notify_port = true;
  queue_reply(c);
}

void ClientRegistry::take_pending_lifecycle_locked(std::vector<int>& out) {
  out.swap(pending_lifecycle_);
  pending_lifecycle_.clear();
  // Slot order, as a walk over the slots would meet them: spawn order
  // assigns entity ids and draws the world RNG. A slot freed and reused
  // within one frame is listed twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void ClientRegistry::queue_reply(ClientSlot& c) {
  if (c.reply_queue == c.owner_thread) return;
  c.reply_queue = c.owner_thread;
  reply_queues_[static_cast<size_t>(c.owner_thread)].push_back(index_of(c));
}

void ClientRegistry::flush_deferred_replies() {
  if (deferred_replies_.empty()) return;
  vt::LockGuard g(*mu_);
  for (const int i : deferred_replies_) {
    ClientSlot& c = slots_[static_cast<size_t>(i)];
    if (c.in_use) queue_reply(c);
  }
  deferred_replies_.clear();
}

void ClientRegistry::count(const ClientSlot& c, int delta) {
  if (!active(c)) return;
  std::vector<int>& s = active_slots_[static_cast<size_t>(c.owner_thread)];
  const int i = index_of(c);
  const auto at = std::lower_bound(s.begin(), s.end(), i);
  if (delta > 0) {
    s.insert(at, i);
  } else {
    s.erase(at);
  }
}

int ClientRegistry::active_clients(uint64_t owners) const {
  return active_below(owners, static_cast<int>(slots_.size()));
}

int ClientRegistry::active_below(uint64_t owners, int slot) const {
  int n = 0;
  for (size_t t = 0; t < active_slots_.size(); ++t) {
    if (((owners >> t) & 1u) == 0) continue;
    const std::vector<int>& s = active_slots_[t];
    n += static_cast<int>(std::lower_bound(s.begin(), s.end(), slot) -
                          s.begin());
  }
  return n;
}

uint64_t ClientRegistry::events_complete_through(uint64_t frame) const {
  for (const auto& c : slots_)
    if (c.in_use && !c.pending_spawn) frame = std::min(frame, c.events_through);
  return frame;
}

bool ClientRegistry::reap_due() const {
  if (cfg_.client_timeout.ns <= 0) return false;
  const int64_t cutoff = platform_.now().ns - cfg_.client_timeout.ns;
  vt::LockGuard g(*mu_);
  for (const auto& c : slots_) {
    if (c.in_use && std::atomic_ref<const int64_t>(c.last_heard_ns)
                            .load(std::memory_order_relaxed) <= cutoff)
      return true;
  }
  return false;
}

void ClientRegistry::remember_evicted_locked(uint16_t port) {
  if (!cfg_.recovery.enabled) return;
  if (!remembered_set_.insert(port).second) return;
  remembered_evicted_.push_back(port);
  while (remembered_evicted_.size() > kRememberedEvictions) {
    remembered_set_.erase(remembered_evicted_.front());
    remembered_evicted_.pop_front();
  }
}

bool ClientRegistry::consume_remembered_eviction(uint16_t port) {
  // Mirrors the pre-extraction gate exactly: with recovery off the lock
  // is never taken; with it on the lock is taken even when the memory is
  // empty (the lock acquisition sequence is part of replay determinism).
  if (!cfg_.recovery.enabled) return false;
  vt::LockGuard g(*mu_);
  return remembered_set_.erase(port) > 0;
}

std::vector<uint16_t> ClientRegistry::remembered_ports_locked() const {
  std::vector<uint16_t> out;
  for (const uint16_t p : remembered_evicted_) {
    if (remembered_set_.count(p) != 0) out.push_back(p);
  }
  return out;
}

void ClientRegistry::reset_run_counters() {
  counters.evictions = 0;
  counters.rejected_connects = 0;
  counters.rejected_busy = 0;
  counters.reassignments = 0;
  counters.stall_reassignments = 0;
  counters.governor_evictions = 0;
  counters.handoffs_out = 0;
  counters.handoffs_in = 0;
  // counters.resumed_clients deliberately survives (lifetime counter).
}

}  // namespace qserv::core
