// The flight recorder's write side: every serialization-indexed mutation
// of the frame is journaled at its mutation site (world step, executed
// move, spawn, disconnect, eviction, cross-shard handoff), and the master
// window seals the frame with its world digest and takes the periodic
// checkpoint before the frame-end hooks run. Only the ordered inputs
// are recorded: replay re-executes them in serialization-index order, and
// state is a pure function of that log. With recovery off every journal_*
// call returns before drawing an index.
#include "src/core/server.hpp"

#include <atomic>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/recovery/blackbox.hpp"
#include "src/recovery/digest.hpp"
#include "src/util/check.hpp"

namespace qserv::core {

using recovery::JournalRecord;
using recovery::RecordKind;

void Server::journal_world_step(int tid, vt::TimePoint t0, vt::Duration dt) {
  if (recorder_ == nullptr) return;
  JournalRecord rec;
  rec.kind = RecordKind::kWorldPhase;
  rec.thread = static_cast<uint8_t>(tid);
  rec.order = draw_order();
  rec.t_ns = t0.ns;
  rec.dt_ns = dt.ns;
  recorder_->record(static_cast<uint32_t>(tid), std::move(rec));
}

void Server::journal_move(int tid, uint16_t port, uint32_t entity,
                          uint64_t order, vt::TimePoint t0,
                          const net::MoveCmd& cmd) {
  if (recorder_ == nullptr) return;
  JournalRecord rec;
  rec.kind = RecordKind::kMoveExec;
  rec.thread = static_cast<uint8_t>(tid);
  rec.port = port;
  rec.entity = entity;
  rec.order = order;
  rec.t_ns = t0.ns;
  rec.cmd = cmd;
  recorder_->record(static_cast<uint32_t>(tid), std::move(rec));
}

void Server::journal_lifecycle(RecordKind kind, int thread, uint16_t port,
                               uint32_t entity, int64_t t_ns,
                               const std::string& name,
                               const recovery::HandoffState* hand) {
  if (recorder_ == nullptr) return;
  JournalRecord rec;
  rec.kind = kind;
  rec.thread = static_cast<uint8_t>(thread);
  rec.port = port;
  rec.entity = entity;
  rec.order = draw_order();
  rec.t_ns = t_ns;
  rec.name = name;
  if (hand != nullptr) rec.hand = *hand;
  recorder_->record(static_cast<uint32_t>(thread), std::move(rec));
}

void Server::seal_journal_frame() {
  if (recorder_ == nullptr) return;
  std::vector<recovery::EntityDigest> per_entity;
  const uint64_t digest = recovery::world_digest(world_, &per_entity);
  recorder_->seal_frame(frames_, last_world_, last_world_dt_, digest,
                        std::move(per_entity));
  const uint32_t interval = cfg_.recovery.checkpoint_interval;
  if (interval > 0 && frames_ % interval == 0)
    checkpoints_->store(make_checkpoint(digest));
}

std::vector<uint8_t> Server::encode_checkpoint_now() {
  QSERV_CHECK_MSG(recorder_ != nullptr,
                  "encode_checkpoint_now needs cfg.recovery.enabled");
  QSERV_CHECK_MSG(active_workers() == 0,
                  "encode_checkpoint_now needs quiesced workers");
  return recovery::encode_checkpoint(
      make_checkpoint(recovery::world_digest(world_, nullptr)));
}

recovery::CheckpointData Server::make_checkpoint(uint64_t digest) {
  recovery::CheckpointData c;
  c.frame = frames_;
  c.captured_at_ns = platform_.now().ns;
  c.seed = cfg_.seed;
  c.base_port = cfg_.base_port;
  c.threads = static_cast<uint32_t>(cfg_.threads);
  c.max_clients = static_cast<uint32_t>(cfg_.max_clients);
  c.areanode_depth = cfg_.areanode_depth;
  c.next_order = order_count();
  c.digest = digest;
  c.rng_state = world_.rng().state();
  c.map_text = map_text_;
  c.entity_storage = static_cast<uint32_t>(world_.entity_storage_size());
  world_.for_each_entity(
      [&](const sim::Entity& e) { c.entities.push_back(e); });
  c.free_ids = world_.free_ids();
  const auto& tree = world_.tree();
  for (int i = 0; i < tree.node_count(); ++i) {
    if (!tree.node(i).objects.empty())
      c.node_objects.emplace_back(i, tree.node(i).objects);
  }
  vt::LockGuard g(registry_.mutex());
  const auto& slots = registry_.slots();
  for (size_t i = 0; i < slots.size(); ++i) {
    const ClientSlot& cl = slots[i];
    if (!cl.in_use || cl.pending_spawn) continue;
    recovery::ClientRecord r;
    ClientRegistry::capture_session(cl, r);
    r.slot = static_cast<uint16_t>(i);
    r.entity_id = cl.entity_id;
    r.owner_thread = static_cast<uint32_t>(cl.owner_thread);
    r.last_heard_ns = std::atomic_ref<const int64_t>(cl.last_heard_ns)
                          .load(std::memory_order_relaxed);
    c.clients.push_back(std::move(r));
  }
  for (const uint16_t p : registry_.remembered_ports_locked())
    c.evicted_ports.push_back(p);
  return c;
}

std::string Server::dump_blackbox(const std::string& label,
                                  const std::string& why) {
  if (blackbox_ == nullptr) return "";
  std::string meta;
  meta += "label: " + label + "\n";
  meta += "why: " + why + "\n";
  meta += "frame: " + std::to_string(frames_) + "\n";
  meta += "now_ns: " + std::to_string(platform_.now().ns) + "\n";
  meta += "seed: " + std::to_string(cfg_.seed) + "\n";
  meta += "threads: " + std::to_string(cfg_.threads) + "\n";
  meta += "clients: " + std::to_string(connected_clients()) + "\n";
  std::vector<uint8_t> ckpt;
  if (checkpoints_->has()) ckpt = checkpoints_->latest();
  std::vector<uint8_t> jrnl = recorder_->encode();
  // The trace is only exported where no other thread can be mid-record:
  // the simulated platform is single-threaded under the hood, and a
  // 1-thread real server has no concurrent writers in its own window.
  std::string trace;
  if (tracer_ != nullptr && (platform_.is_simulated() || cfg_.threads == 1))
    trace = tracer_->export_chrome_trace();
  return blackbox_->dump(label, meta, ckpt, jrnl, trace);
}

}  // namespace qserv::core
