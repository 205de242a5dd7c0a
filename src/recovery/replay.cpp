#include "src/recovery/replay.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "src/recovery/digest.hpp"
#include "src/sim/move.hpp"
#include "src/spatial/map.hpp"

namespace qserv::recovery {
namespace {

struct NullSink final : sim::EventSink {
  void emit(const net::GameEvent&) override {}
};

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// Names the first entity whose recorded hash differs from the replayed
// world's, walking both id-ordered lists in lockstep. Returns 0 when the
// recording carried no per-entity digests (or the lists are equal and the
// divergence is in the allocator/RNG tail of the frame digest).
uint32_t first_divergent_entity(const std::vector<EntityDigest>& want,
                                const std::vector<EntityDigest>& got,
                                std::string* detail) {
  size_t i = 0, j = 0;
  while (i < want.size() || j < got.size()) {
    if (j >= got.size() || (i < want.size() && want[i].id < got[j].id)) {
      *detail = format("entity %u exists live but not in replay", want[i].id);
      return want[i].id;
    }
    if (i >= want.size() || got[j].id < want[i].id) {
      *detail = format("entity %u exists in replay but not live", got[j].id);
      return got[j].id;
    }
    if (want[i].hash != got[j].hash) {
      *detail = format("entity %u state hash differs (live %08x, replay %08x)",
                       want[i].id, want[i].hash, got[j].hash);
      return want[i].id;
    }
    ++i;
    ++j;
  }
  *detail = "all entities match; allocator or RNG state differs";
  return 0;
}

}  // namespace

std::string ReplayResult::summary() const {
  if (!error.empty()) return "replay setup failed: " + error;
  if (diverged) {
    std::string s = format(
        "DIVERGED at frame %" PRIu64 " (digest live %016" PRIx64
        " vs replay %016" PRIx64 ")",
        divergent_frame, want_digest, got_digest);
    if (!detail.empty()) s += ": " + detail;
    return s;
  }
  return format("replay identical over %" PRIu64 " frames (%" PRIu64
                " moves, %" PRIu64 " lifecycle ops) from frame %" PRIu64,
                frames_checked, moves_applied, lifecycle_applied, start_frame);
}

std::string select_tail(const JournalFile& journal, uint64_t ckpt_frame,
                        JournalTail& tail) {
  tail.clear();
  uint64_t expected = ckpt_frame + 1;
  for (const auto& fj : journal.frames) {
    if (fj.frame <= ckpt_frame) continue;  // ring reaches further back
    if (fj.frame != expected) {
      return format("journal gap: expected frame %" PRIu64
                    ", ring has %" PRIu64,
                    expected, fj.frame);
    }
    ++expected;
    tail.push_back(&fj);
  }
  return "";
}

ReplayResult replay_tail(sim::World& world, const JournalTail& tail) {
  ReplayResult res;
  NullSink sink;
  const auto diverge = [&res](uint64_t frame, uint32_t entity,
                              std::string detail) {
    res.diverged = true;
    res.divergent_frame = frame;
    res.divergent_entity = entity;
    res.detail = std::move(detail);
    return res;
  };
  for (const FrameJournal* fj : tail) {
    for (const auto& rec : fj->records) {
      switch (rec.kind) {
        case RecordKind::kWorldPhase:
          world.world_phase(vt::TimePoint{rec.t_ns}, vt::Duration{rec.dt_ns},
                            sink);
          break;
        case RecordKind::kMoveExec: {
          sim::Entity* p = world.get(rec.entity);
          if (p == nullptr || !p->is_player()) {
            return diverge(fj->frame, rec.entity,
                           format("move for entity %u which is %s in replay",
                                  rec.entity,
                                  p == nullptr ? "missing" : "not a player"));
          }
          sim::execute_move(world, *p, rec.cmd, vt::TimePoint{rec.t_ns},
                            nullptr, &sink, rec.order);
          ++res.moves_applied;
          break;
        }
        case RecordKind::kConnectSpawn:
        case RecordKind::kHandoffIn: {
          const sim::Entity& e =
              rec.kind == RecordKind::kHandoffIn
                  ? adopt_player(world, rec.name, rec.hand)
                  : world.spawn_player(rec.name);
          ++res.lifecycle_applied;
          if (e.id != rec.entity) {
            return diverge(fj->frame, rec.entity,
                           format("%s allocated entity %u, live allocated %u",
                                  record_kind_name(rec.kind), e.id,
                                  rec.entity));
          }
          break;
        }
        case RecordKind::kDisconnect:
        case RecordKind::kEvict:
        case RecordKind::kHandoffOut:
          if (world.get(rec.entity) == nullptr) {
            return diverge(fj->frame, rec.entity,
                           format("%s of entity %u which is missing in replay",
                                  record_kind_name(rec.kind), rec.entity));
          }
          world.remove_entity(rec.entity);
          ++res.lifecycle_applied;
          break;
      }
    }

    const uint64_t d = world_digest(world);
    ++res.frames_checked;
    if (d != fj->digest) {
      res.want_digest = fj->digest;
      res.got_digest = d;
      if (fj->entity_digests.empty()) return diverge(fj->frame, 0, "");
      std::vector<EntityDigest> got;
      world_digest(world, &got);
      std::string detail;
      const uint32_t entity =
          first_divergent_entity(fj->entity_digests, got, &detail);
      return diverge(fj->frame, entity, std::move(detail));
    }
  }
  res.ok = true;
  return res;
}

void advance_registry(const JournalTail& tail, CheckpointData& ckpt) {
  auto& clients = ckpt.clients;
  const auto find_client = [&clients](uint32_t entity) {
    return std::find_if(
        clients.begin(), clients.end(),
        [entity](const ClientRecord& r) { return r.entity_id == entity; });
  };
  for (const FrameJournal* fj : tail) {
    for (const auto& rec : fj->records) {
      switch (rec.kind) {
        case RecordKind::kMoveExec: {
          const auto it = find_client(rec.entity);
          if (it != clients.end()) {
            it->last_seq = rec.cmd.sequence;
            it->last_move_time_ns = rec.t_ns;
          }
          break;
        }
        case RecordKind::kConnectSpawn:
        case RecordKind::kHandoffIn: {
          ClientRecord r;
          r.slot = kSlotBornInTail;
          r.remote_port = rec.port;
          r.name = rec.name;
          r.entity_id = rec.entity;
          r.owner_thread = rec.thread;
          clients.push_back(std::move(r));
          break;
        }
        case RecordKind::kDisconnect:
        case RecordKind::kEvict:
        case RecordKind::kHandoffOut: {
          const auto it = find_client(rec.entity);
          if (it != clients.end()) clients.erase(it);
          if (rec.kind == RecordKind::kEvict)
            ckpt.evicted_ports.push_back(rec.port);
          break;
        }
        case RecordKind::kWorldPhase:
          break;
      }
      if (rec.order >= ckpt.next_order)
        ckpt.next_order = rec.order + 1;
    }
  }
}

ReplayResult replay_verify(const CheckpointData& ckpt,
                           const JournalFile& journal) {
  ReplayResult res;
  res.start_frame = ckpt.frame;

  spatial::GameMap map;
  if (!spatial::GameMap::parse(ckpt.map_text, map)) {
    res.error = "checkpoint map text does not parse";
    return res;
  }
  sim::World world(map, {ckpt.areanode_depth, ckpt.seed});
  restore_world(ckpt, world);

  const uint64_t d0 = world_digest(world);
  if (ckpt.digest != 0 && d0 != ckpt.digest) {
    res.diverged = true;
    res.divergent_frame = ckpt.frame;
    res.want_digest = ckpt.digest;
    res.got_digest = d0;
    res.detail = "restored world digest differs at the checkpoint itself";
    return res;
  }
  JournalTail tail;
  res.error = select_tail(journal, ckpt.frame, tail);
  if (!res.error.empty()) return res;
  if (tail.empty()) {
    res.error = "no journal frames follow the checkpoint";
    return res;
  }

  res = replay_tail(world, tail);
  res.start_frame = ckpt.frame;
  return res;
}

ReplayResult verify_recorded(const CheckpointManager& checkpoints,
                             const FlightRecorder& recorder) {
  ReplayResult res;
  if (!checkpoints.has()) {
    res.error = "no checkpoint taken";
    return res;
  }
  CheckpointData ckpt;
  const LoadError err = decode_checkpoint(checkpoints.latest(), ckpt);
  if (err != LoadError::kNone) {
    res.error = std::string("latest checkpoint does not decode: ") +
                load_error_name(err);
    return res;
  }
  JournalFile jf;
  jf.seed = recorder.seed();
  jf.frames.assign(recorder.frames().begin(), recorder.frames().end());
  return replay_verify(ckpt, jf);
}

}  // namespace qserv::recovery
