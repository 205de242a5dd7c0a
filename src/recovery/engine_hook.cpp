#include "src/recovery/engine_hook.hpp"

#include <atomic>
#include <utility>

#include "src/core/server.hpp"
#include "src/obs/trace.hpp"
#include "src/recovery/digest.hpp"
#include "src/spatial/map.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::recovery {

ServerRecovery::ServerRecovery(core::Server& server,
                               const spatial::GameMap& map)
    : server_(server),
      map_text_(map.serialize()),
      recorder_(server.config().recovery,
                static_cast<uint32_t>(server.config().threads),
                server.config().seed),
      blackbox_(server.config().recovery.dump_dir) {}

void ServerRecovery::on_world_tick(int tid, vt::TimePoint t0,
                                   vt::Duration dt) {
  JournalRecord rec;
  rec.kind = RecordKind::kWorldPhase;
  rec.thread = static_cast<uint8_t>(tid);
  rec.order = server_.draw_order();
  rec.t_ns = t0.ns;
  rec.dt_ns = dt.ns;
  recorder_.record(rec.thread, rec);
}

void ServerRecovery::on_move_executed(int tid, uint16_t port,
                                      uint32_t entity, uint64_t order,
                                      vt::TimePoint t0,
                                      const net::MoveCmd& cmd) {
  JournalRecord rec;
  rec.kind = RecordKind::kMoveExec;
  rec.thread = static_cast<uint8_t>(tid);
  rec.port = port;
  rec.entity = entity;
  rec.order = order;
  rec.t_ns = t0.ns;
  rec.cmd = cmd;
  recorder_.record(static_cast<uint32_t>(tid), rec);
}

void ServerRecovery::on_drop(int tid, uint16_t port, DropReason why) {
  JournalRecord rec;
  rec.kind = RecordKind::kDropped;
  rec.drop = why;
  rec.thread = static_cast<uint8_t>(tid);
  rec.port = port;
  rec.t_ns = server_.platform().now().ns;
  recorder_.record(static_cast<uint32_t>(tid), rec);
}

void ServerRecovery::on_frame_sealed() {
  const Config& rc = server_.config().recovery;
  std::vector<EntityDigest> per_entity;
  const uint64_t digest = world_digest(server_.world(), &per_entity);
  recorder_.seal_frame(server_.frames(), server_.last_world_t0(),
                       server_.last_world_dt(), digest,
                       std::move(per_entity));
  if (rc.checkpoint_interval > 0 &&
      server_.frames() % rc.checkpoint_interval == 0)
    checkpoints_.store(make_checkpoint(digest));
}

std::vector<uint8_t> ServerRecovery::capture_now_encoded() {
  const uint64_t digest = world_digest(server_.world(), nullptr);
  return encode_checkpoint(make_checkpoint(digest));
}

void ServerRecovery::on_client_spawned(int owner, uint16_t port,
                                       uint32_t entity,
                                       const std::string& name,
                                       int64_t t_ns) {
  JournalRecord rec;
  rec.kind = RecordKind::kConnectSpawn;
  rec.thread = static_cast<uint8_t>(owner);
  rec.port = port;
  rec.entity = entity;
  rec.order = server_.draw_order();
  rec.t_ns = t_ns;
  rec.name = name;
  recorder_.record(static_cast<uint32_t>(owner), rec);
}

void ServerRecovery::on_client_disconnected(int owner, uint16_t port,
                                            uint32_t entity, int64_t t_ns) {
  JournalRecord rec;
  rec.kind = RecordKind::kDisconnect;
  rec.thread = static_cast<uint8_t>(owner);
  rec.port = port;
  rec.entity = entity;
  rec.order = server_.draw_order();
  rec.t_ns = t_ns;
  recorder_.record(static_cast<uint32_t>(owner), rec);
}

void ServerRecovery::on_client_evicted(int owner, uint16_t port,
                                       uint32_t entity) {
  JournalRecord rec;
  rec.kind = RecordKind::kEvict;
  rec.thread = static_cast<uint8_t>(owner);
  rec.port = port;
  rec.entity = entity;
  rec.order = server_.draw_order();
  rec.t_ns = server_.platform().now().ns;
  recorder_.record(static_cast<uint32_t>(owner), rec);
}

void ServerRecovery::record_handoff_out(uint16_t port, uint32_t entity,
                                        const std::string& name) {
  JournalRecord rec;
  rec.kind = RecordKind::kHandoffOut;
  rec.port = port;
  rec.entity = entity;
  rec.order = server_.draw_order();
  rec.t_ns = server_.platform().now().ns;
  rec.name = name;
  recorder_.record(0, rec);
}

void ServerRecovery::record_handoff_in(uint16_t port, uint32_t entity,
                                       const std::string& name,
                                       const HandoffState& hs) {
  JournalRecord rec;
  rec.kind = RecordKind::kHandoffIn;
  rec.port = port;
  rec.entity = entity;
  rec.order = server_.draw_order();
  rec.t_ns = server_.platform().now().ns;
  rec.name = name;
  rec.hand = hs;
  recorder_.record(0, rec);
}

CheckpointData ServerRecovery::make_checkpoint(uint64_t digest) {
  const core::ServerConfig& cfg = server_.config();
  CheckpointData c;
  c.frame = server_.frames();
  c.captured_at_ns = server_.platform().now().ns;
  c.seed = cfg.seed;
  c.base_port = cfg.base_port;
  c.threads = static_cast<uint32_t>(cfg.threads);
  c.max_clients = static_cast<uint32_t>(cfg.max_clients);
  c.areanode_depth = cfg.areanode_depth;
  c.next_order = server_.order_count();
  c.digest = digest;
  const sim::World& w = server_.world();
  c.rng_state = w.rng().state();
  c.map_text = map_text_;
  c.entity_storage = static_cast<uint32_t>(w.entity_storage_size());
  w.for_each_entity([&](const sim::Entity& e) { c.entities.push_back(e); });
  c.free_ids = w.free_ids();
  const auto& tree = w.tree();
  for (int i = 0; i < tree.node_count(); ++i) {
    if (!tree.node(i).objects.empty())
      c.node_objects.emplace_back(i, tree.node(i).objects);
  }
  core::ClientRegistry& reg = server_.registry();
  vt::LockGuard g(reg.mutex());
  const auto& slots = reg.slots();
  for (size_t i = 0; i < slots.size(); ++i) {
    const core::ClientSlot& cl = slots[i];
    if (!cl.in_use || cl.pending_spawn) continue;
    ClientRecord r;
    r.slot = static_cast<uint16_t>(i);
    r.remote_port = cl.remote_port;
    r.name = cl.name;
    r.entity_id = cl.entity_id;
    r.owner_thread = static_cast<uint32_t>(cl.owner_thread);
    r.last_seq = cl.last_seq;
    r.last_move_time_ns = cl.last_move_time_ns;
    r.last_heard_ns = std::atomic_ref<const int64_t>(cl.last_heard_ns)
                          .load(std::memory_order_relaxed);
    if (cl.chan != nullptr) {
      r.chan_out_seq = cl.chan->out_sequence();
      r.chan_in_seq = cl.chan->in_sequence();
      r.chan_in_acked = cl.chan->peer_acked();
    }
    c.clients.push_back(std::move(r));
  }
  for (const uint16_t p : reg.remembered_ports_locked())
    c.evicted_ports.push_back(p);
  return c;
}

std::string ServerRecovery::dump(const std::string& label,
                                 const std::string& why) {
  const core::ServerConfig& cfg = server_.config();
  std::string meta;
  meta += "label: " + label + "\n";
  meta += "why: " + why + "\n";
  meta += "frame: " + std::to_string(server_.frames()) + "\n";
  meta += "now_ns: " + std::to_string(server_.platform().now().ns) + "\n";
  meta += "seed: " + std::to_string(cfg.seed) + "\n";
  meta += "threads: " + std::to_string(cfg.threads) + "\n";
  meta += "clients: " + std::to_string(server_.connected_clients()) + "\n";
  std::vector<uint8_t> ckpt;
  if (checkpoints_.has()) ckpt = checkpoints_.latest();
  std::vector<uint8_t> jrnl = recorder_.encode();
  // The trace is only exported where no other thread can be mid-record:
  // the simulated platform is single-threaded under the hood, and a
  // 1-thread real server has no concurrent writers in its own window.
  std::string trace;
  obs::Tracer* tracer = server_.tracer();
  if (tracer != nullptr &&
      (server_.platform().is_simulated() || cfg.threads == 1))
    trace = tracer->export_chrome_trace();
  return blackbox_.dump(label, meta, ckpt, jrnl, trace);
}

}  // namespace qserv::recovery
