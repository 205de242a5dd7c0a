// Crash-recovery suite: world digests, checkpoint encode/decode/restore
// round-trips, loader hardening against truncated and corrupt images,
// digest-verified deterministic replay on both platforms, black-box dumps
// on invariant violations, and the warm-restart choreography — kill a
// live server mid-soak, restore its checkpoint into a fresh instance, and
// watch every client resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/virtual_udp.hpp"
#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/harness/experiment.hpp"
#include "src/recovery/blackbox.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/recovery/digest.hpp"
#include "src/recovery/journal.hpp"
#include "src/recovery/replay.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv {
namespace {

constexpr vt::TimePoint t0 = vt::TimePoint::zero();

// --- world digests -------------------------------------------------------

TEST(Digest, IdenticalWorldsHashIdentically) {
  const auto map = spatial::make_arena(1024);
  sim::World a(map, {});
  sim::World b(map, {});
  a.spawn_player("p1");
  b.spawn_player("p1");
  EXPECT_EQ(recovery::world_digest(a), recovery::world_digest(b));
}

TEST(Digest, SensitiveToEntityStateAndAttributesTheEntity) {
  const auto map = spatial::make_arena(1024);
  sim::World a(map, {});
  sim::World b(map, {});
  auto& pa = a.spawn_player("p1");
  b.spawn_player("p1");

  std::vector<recovery::EntityDigest> da, db;
  ASSERT_EQ(recovery::world_digest(a, &da), recovery::world_digest(b, &db));
  ASSERT_EQ(da.size(), db.size());
  ASSERT_EQ(da.size(), a.active_entities());

  pa.origin.x += 0.25f;
  da.clear();
  EXPECT_NE(recovery::world_digest(a, &da), recovery::world_digest(b));
  // Exactly one per-entity hash moved: the mutated player.
  int changed = 0;
  uint32_t changed_id = 0;
  for (size_t i = 0; i < da.size(); ++i) {
    if (da[i].hash != db[i].hash) {
      ++changed;
      changed_id = da[i].id;
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(changed_id, pa.id);
}

TEST(Digest, SensitiveToRngStateAndFreeList) {
  const auto map = spatial::make_arena(1024);
  sim::World a(map, {});
  sim::World b(map, {});
  const uint64_t base = recovery::world_digest(a);
  ASSERT_EQ(base, recovery::world_digest(b));

  // Allocator drift: spawn + remove leaves the entity set identical but
  // the free list (and thus future id assignment) different.
  const uint32_t id = a.spawn_player("ghost").id;
  a.remove_entity(id);
  EXPECT_NE(recovery::world_digest(a), base);

  // RNG drift alone must also show up the frame it happens.
  b.rng().next_u64();
  EXPECT_NE(recovery::world_digest(b), base);
}

// --- fixtures: short recorded runs ---------------------------------------

struct RecordedRun {
  std::vector<uint8_t> checkpoint;  // latest image at shutdown
  std::vector<uint8_t> journal;     // full ring at shutdown
};

// One short simulated soak with recovery enabled; returns the encoded
// artifacts the decode-hardening tests chew on.
const RecordedRun& sample_run() {
  static const RecordedRun run = [] {
    vt::SimPlatform p;
    net::VirtualNetwork net(p, {});
    const auto map = spatial::make_arena(1024);
    core::ServerConfig scfg;
    scfg.recovery.enabled = true;
    scfg.recovery.checkpoint_interval = 8;
    core::SequentialServer server(p, net, map, scfg);
    bots::ClientDriver::Config dcfg;
    dcfg.players = 4;
    bots::ClientDriver driver(p, net, map, server, dcfg);
    server.start();
    driver.start();
    p.call_after(vt::seconds(3), [&] {
      server.request_stop();
      driver.request_stop();
    });
    p.run();
    RecordedRun out;
    out.checkpoint = server.checkpoints()->latest();
    out.journal = server.recorder()->encode();
    return out;
  }();
  return run;
}

// --- checkpoint round-trip ------------------------------------------------

TEST(Checkpoint, DecodeEncodeRoundTripsByteForByte) {
  const auto& bytes = sample_run().checkpoint;
  ASSERT_FALSE(bytes.empty());

  recovery::CheckpointData c;
  ASSERT_EQ(recovery::decode_checkpoint(bytes, c), recovery::LoadError::kNone);
  EXPECT_GT(c.frame, 0u);
  EXPECT_EQ(c.clients.size(), 4u);
  EXPECT_FALSE(c.map_text.empty());

  // Canonical encoding: decode(encode(decode(x))) == decode(x), bytewise.
  EXPECT_EQ(recovery::encode_checkpoint(c), bytes);
}

TEST(Checkpoint, RestoredWorldReproducesTheCapturedDigest) {
  const auto& bytes = sample_run().checkpoint;
  recovery::CheckpointData c;
  ASSERT_EQ(recovery::decode_checkpoint(bytes, c), recovery::LoadError::kNone);

  const auto map = spatial::make_arena(1024);  // same map as sample_run()
  sim::World w(map, {c.areanode_depth, c.seed});
  recovery::restore_world(c, w);
  EXPECT_EQ(recovery::world_digest(w), c.digest);
  EXPECT_EQ(w.entity_storage_size(), c.entity_storage);
  EXPECT_EQ(w.free_ids(), c.free_ids);
}

// --- loader hardening -----------------------------------------------------

TEST(LoaderHardening, CheckpointTruncationAtEveryByteFailsCleanly) {
  const auto& bytes = sample_run().checkpoint;
  ASSERT_FALSE(bytes.empty());
  recovery::CheckpointData c;
  for (size_t n = 0; n < bytes.size(); ++n) {
    const auto err = recovery::decode_checkpoint(bytes.data(), n, c);
    ASSERT_NE(err, recovery::LoadError::kNone) << "prefix of " << n
                                               << " bytes decoded as valid";
  }
}

TEST(LoaderHardening, JournalTruncationAtEveryByteFailsCleanly) {
  const auto& bytes = sample_run().journal;
  ASSERT_FALSE(bytes.empty());
  recovery::JournalFile jf;
  for (size_t n = 0; n < bytes.size(); ++n) {
    const auto err = recovery::decode_journal(bytes.data(), n, jf);
    ASSERT_NE(err, recovery::LoadError::kNone) << "prefix of " << n
                                               << " bytes decoded as valid";
  }
}

// Every single-bit flip past the 8-byte magic/version header — body and
// trailing checksum words alike — must be rejected by the whole-file
// content checksum, with the typed kChecksum error (never a crash, never
// a silently-wrong decode). Flips inside the header are typed separately
// below.
TEST(LoaderHardening, EveryFlippedByteIsRejectedByTheContentChecksum) {
  const auto& bytes = sample_run().checkpoint;
  ASSERT_GT(bytes.size(), 16u);
  std::vector<uint8_t> buf;
  recovery::CheckpointData c;
  for (size_t at = 8; at < bytes.size(); ++at) {
    buf = bytes;
    buf[at] ^= static_cast<uint8_t>(1u << (at % 8));
    EXPECT_EQ(recovery::decode_checkpoint(buf, c),
              recovery::LoadError::kChecksum)
        << "flip at byte " << at;
  }

  // The journal carries the same seal: a flipped port, thread or name
  // byte must not decode into a different but well-formed record.
  const auto& jbytes = sample_run().journal;
  ASSERT_GT(jbytes.size(), 16u);
  recovery::JournalFile jf;
  for (size_t at = 8; at < jbytes.size(); ++at) {
    buf = jbytes;
    buf[at] ^= static_cast<uint8_t>(1u << (at % 8));
    EXPECT_EQ(recovery::decode_journal(buf, jf),
              recovery::LoadError::kChecksum)
        << "journal flip at byte " << at;
  }
}

TEST(LoaderHardening, MagicAndVersionAreChecked) {
  auto ckpt = sample_run().checkpoint;
  recovery::CheckpointData c;
  ckpt[0] ^= 0xff;  // magic is the first u32
  EXPECT_EQ(recovery::decode_checkpoint(ckpt, c),
            recovery::LoadError::kBadMagic);
  ckpt[0] ^= 0xff;
  ckpt[4] ^= 0xff;  // version is the second u32
  EXPECT_EQ(recovery::decode_checkpoint(ckpt, c),
            recovery::LoadError::kBadVersion);

  auto jrnl = sample_run().journal;
  recovery::JournalFile jf;
  jrnl[0] ^= 0xff;
  EXPECT_EQ(recovery::decode_journal(jrnl, jf),
            recovery::LoadError::kBadMagic);
  jrnl[0] ^= 0xff;
  jrnl[4] ^= 0xff;
  EXPECT_EQ(recovery::decode_journal(jrnl, jf),
            recovery::LoadError::kBadVersion);
  // Older images are refused outright rather than misparsed: a
  // qserv-jrnl-v3 image (no content checksum) and a v2 one (per-record
  // drop byte, kDropped records). The version is little-endian.
  ASSERT_EQ(recovery::kJournalVersion, 4u);
  for (const uint8_t old_version : {3, 2}) {
    jrnl[4] = old_version;
    EXPECT_EQ(recovery::decode_journal(jrnl, jf),
              recovery::LoadError::kBadVersion)
        << "version " << int{old_version};
  }
}

// Seeded random corruption: flipped bytes and length-lying counts must
// never crash the loaders — any return value is fine, returning is not.
TEST(LoaderHardening, RandomCorruptionNeverCrashesTheLoaders) {
  Rng rng(1234);
  const auto& ckpt = sample_run().checkpoint;
  const auto& jrnl = sample_run().journal;
  std::vector<uint8_t> buf;
  for (int iter = 0; iter < 1500; ++iter) {
    const bool journal = (iter & 1) != 0;
    buf = journal ? jrnl : ckpt;
    // Corrupt 1..4 random bytes; every few iterations plant a 0xffffffff
    // "count" instead, the classic length-lying attack on resize().
    if (iter % 5 == 0) {
      const size_t at = rng.next_u64() % (buf.size() - 4);
      std::memset(buf.data() + at, 0xff, 4);
    } else {
      const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
      for (int i = 0; i < flips; ++i)
        buf[rng.next_u64() % buf.size()] ^= static_cast<uint8_t>(
            1u << (rng.next_u64() % 8));
    }
    if (journal) {
      recovery::JournalFile jf;
      (void)recovery::decode_journal(buf, jf);
    } else {
      recovery::CheckpointData c;
      (void)recovery::decode_checkpoint(buf, c);
    }
  }
}

// --- deterministic replay -------------------------------------------------

// Long recorded soak; the replay anchor is an *early* checkpoint (grabbed
// mid-run before the double buffer recycles it) so the verified stretch
// spans 500+ frames, per the acceptance criteria.
void replay_long_run(bool parallel) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = parallel ? 4 : 1;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 64;
  scfg.recovery.journal_frames = 8192;
  std::unique_ptr<core::Server> server;
  if (parallel) {
    server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  } else {
    server = std::make_unique<core::SequentialServer>(p, net, map, scfg);
  }
  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  bots::ClientDriver driver(p, net, map, *server, dcfg);
  server->start();
  driver.start();

  recovery::CheckpointData anchor;
  bool grabbed = false;
  // Frames form at roughly the aggregate client wake rate (~360/s with
  // 12 clients at 30 fps), so anchor at 3s and stop at 8s keeps the
  // anchor inside the 8192-frame ring while still checking 1500+ frames.
  p.call_after(vt::seconds(3), [&] {
    ASSERT_TRUE(server->checkpoints()->has());
    ASSERT_EQ(recovery::decode_checkpoint(server->checkpoints()->latest(),
                                          anchor),
              recovery::LoadError::kNone);
    grabbed = true;
  });
  p.call_after(vt::seconds(8), [&] {
    server->request_stop();
    driver.request_stop();
  });
  p.run();
  ASSERT_TRUE(grabbed);

  recovery::JournalFile jf;
  ASSERT_EQ(recovery::decode_journal(server->recorder()->encode(), jf),
            recovery::LoadError::kNone);
  const auto rv = recovery::replay_verify(anchor, jf);
  EXPECT_TRUE(rv.ok) << rv.summary();
  EXPECT_FALSE(rv.diverged) << rv.summary();
  EXPECT_GE(rv.frames_checked, 500u);
  EXPECT_GT(rv.moves_applied, 0u);
}

TEST(Replay, SequentialSoakReplaysBitIdenticalOver500Frames) {
  replay_long_run(/*parallel=*/false);
}

TEST(Replay, ParallelSoakReplaysBitIdenticalOver500Frames) {
  replay_long_run(/*parallel=*/true);
}

// The harness-level hook: run_experiment(verify_replay) replays the tail
// of its own run and reports the verdict in the result (and from there in
// the qserv-bench-v1 JSON).
TEST(Replay, ExperimentHarnessVerifiesItsOwnRun) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 2, 16,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(4);
  cfg.server.recovery.enabled = true;
  cfg.server.recovery.checkpoint_interval = 32;
  cfg.verify_replay = true;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.replay_ran);
  EXPECT_TRUE(r.replay_ok) << r.replay_summary;
  EXPECT_GT(r.checkpoints_taken, 0u);
  EXPECT_GT(r.checkpoint_bytes, 0u);
  EXPECT_GT(r.checkpoint_pause_ns, 0);
  EXPECT_GT(r.journal_frames, 0u);
  EXPECT_GT(r.journal_records, 0u);
  EXPECT_EQ(r.blackbox_dumps, 0u);
}

// --- determinism audit ----------------------------------------------------

// Two runs of the identical simulated configuration must seal identical
// (frame, digest) sequences — the named seed streams (util/rng.hpp) leave
// nothing drawing from shared or ad-hoc sequences.
std::vector<std::pair<uint64_t, uint64_t>> digest_sequence(int threads,
                                                           uint64_t seed) {
  vt::SimPlatform p;
  net::VirtualNetwork::Config ncfg;
  ncfg.seed = derive_seed(seed, streams::kNetwork);
  net::VirtualNetwork net(p, ncfg);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = threads;
  scfg.seed = seed;
  scfg.recovery.enabled = true;
  scfg.recovery.journal_frames = 8192;
  std::unique_ptr<core::Server> server;
  if (threads > 1) {
    server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  } else {
    server = std::make_unique<core::SequentialServer>(p, net, map, scfg);
  }
  bots::ClientDriver::Config dcfg;
  dcfg.players = 10;
  dcfg.seed = derive_seed(seed, streams::kClientDriver);
  bots::ClientDriver driver(p, net, map, *server, dcfg);
  server->start();
  driver.start();
  p.call_after(vt::seconds(10), [&] {
    server->request_stop();
    driver.request_stop();
  });
  p.run();

  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& f : server->recorder()->frames())
    out.emplace_back(f.frame, f.digest);
  return out;
}

TEST(Determinism, TwoIdenticalSequentialRunsSealIdenticalDigests) {
  const auto a = digest_sequence(1, 42);
  const auto b = digest_sequence(1, 42);
  ASSERT_GT(a.size(), 50u);
  EXPECT_EQ(a, b);
}

TEST(Determinism, TwoIdenticalParallelRunsSealIdenticalDigests) {
  const auto a = digest_sequence(4, 42);
  const auto b = digest_sequence(4, 42);
  ASSERT_GT(a.size(), 50u);
  EXPECT_EQ(a, b);
}

// Real platform: live runs are not bit-reproducible across executions
// (frame formation follows real scheduling), so the acceptance is
// replay-vs-live identity — re-executing the journal from a checkpoint
// must reproduce the live digests exactly. Runs under TSan in CI.
//
// The replay anchors on the first checkpoint, copied in the master window
// that publishes it. The latest checkpoint would not do: when the run
// stops right after taking one, no frame follows it to check.
struct FirstCheckpoint final : core::FrameHook {
  const core::Server& server;
  std::vector<uint8_t> image;
  explicit FirstCheckpoint(const core::Server& s) : server(s) {}
  void on_frame_end(vt::TimePoint, int, core::ThreadStats&) override {
    if (image.empty() && server.checkpoints()->has())
      image = server.checkpoints()->latest();
  }
};

TEST(Determinism, RealPlatformReplayMatchesLiveDigests) {
  vt::RealPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 4;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 16;
  scfg.recovery.journal_frames = 8192;  // the whole run, from frame 16
  core::ParallelServer server(p, net, map, scfg);
  FirstCheckpoint first(server);
  server.add_frame_hook(&first);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  dcfg.frame_interval = vt::millis(10);  // faster clients, shorter test
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::millis(1500), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.join_all();

  recovery::CheckpointData anchor;
  ASSERT_EQ(recovery::decode_checkpoint(first.image, anchor),
            recovery::LoadError::kNone);
  recovery::JournalFile jf;
  ASSERT_EQ(recovery::decode_journal(server.recorder()->encode(), jf),
            recovery::LoadError::kNone);
  const auto rv = recovery::replay_verify(anchor, jf);
  EXPECT_TRUE(rv.ok) << rv.summary();
  EXPECT_GT(rv.frames_checked, 0u);
}

// --- the journal's index stream -------------------------------------------

// A short 2-thread churn soak (crashes, quits, rejoins, timeout reaps) on
// a fresh server. The ring holds the whole run.
struct IndexedRun {
  uint64_t orders = 0;  // order_count() at shutdown
  uint64_t moves = 0;   // moves executed
  uint64_t staged = 0;  // journal records staged (recovery on)
  recovery::JournalFile journal;
};

IndexedRun churn_run(bool recovery_on) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(2048);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.client_timeout = vt::millis(500);
  scfg.recovery.enabled = recovery_on;
  scfg.recovery.journal_frames = 1u << 16;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(1);
  dcfg.churn.crash_fraction = 0.5f;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(5), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  IndexedRun out;
  out.orders = server.order_count();
  out.moves = server.total_requests();
  if (recovery_on) {
    out.staged = server.recorder()->records_staged();
    EXPECT_EQ(server.recorder()->frames().size(),
              server.recorder()->frames_sealed());
    EXPECT_EQ(recovery::decode_journal(server.recorder()->encode(),
                                       out.journal),
              recovery::LoadError::kNone);
  }
  return out;
}

// Every serialization index a recovery run draws lands in exactly one
// journal record (the journal holds the ordered inputs and nothing else),
// and a run without recovery draws one index per executed move only.
TEST(Journal, EverySerializationIndexIsJournaledAndOnlyUnderRecovery) {
  const IndexedRun on = churn_run(/*recovery_on=*/true);
  EXPECT_EQ(on.staged, on.orders);
  std::vector<uint64_t> orders;
  int spawns = 0, departures = 0;
  for (const auto& f : on.journal.frames) {
    for (const auto& rec : f.records) {
      orders.push_back(rec.order);
      if (rec.kind == recovery::RecordKind::kConnectSpawn) ++spawns;
      if (rec.kind == recovery::RecordKind::kDisconnect ||
          rec.kind == recovery::RecordKind::kEvict)
        ++departures;
    }
  }
  // The churn really exercised the lifecycle points.
  EXPECT_GT(spawns, 8);
  EXPECT_GT(departures, 0);
  EXPECT_EQ(orders.size(), on.orders);
  std::sort(orders.begin(), orders.end());
  EXPECT_TRUE(std::adjacent_find(orders.begin(), orders.end()) ==
              orders.end())
      << "a serialization index was journaled twice";
  ASSERT_FALSE(orders.empty());
  EXPECT_LT(orders.back(), on.orders);

  const IndexedRun off = churn_run(/*recovery_on=*/false);
  EXPECT_GT(off.moves, 0u);
  EXPECT_EQ(off.orders, off.moves);
}

// A hook registered after construction sees every frame already sealed
// into the flight recorder, and on checkpoint frames the checkpoint of
// this very frame: the server seals before it dispatches on_frame_sealed.
struct SealedFrameProbe final : core::FrameHook {
  const core::Server& server;
  uint32_t interval;
  uint64_t frames_seen = 0;
  uint64_t checkpoints_seen = 0;
  SealedFrameProbe(const core::Server& s, uint32_t every)
      : server(s), interval(every) {}
  void on_frame_sealed() override {
    ++frames_seen;
    EXPECT_EQ(server.recorder()->frames_sealed(), server.frames());
    ASSERT_FALSE(server.recorder()->frames().empty());
    EXPECT_EQ(server.recorder()->frames().back().frame, server.frames());
    if (server.frames() % interval != 0) return;
    recovery::CheckpointData c;
    ASSERT_EQ(recovery::decode_checkpoint(server.checkpoints()->latest(), c),
              recovery::LoadError::kNone);
    EXPECT_EQ(c.frame, server.frames());
    ++checkpoints_seen;
  }
};

TEST(Journal, HookProbesSeeASealedFrame) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 16;
  core::ParallelServer server(p, net, map, scfg);
  SealedFrameProbe probe(server, scfg.recovery.checkpoint_interval);
  server.add_frame_hook(&probe);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 4;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(2), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  EXPECT_EQ(probe.frames_seen, server.frames());
  EXPECT_GT(probe.checkpoints_seen, 0u);
}

// --- black box ------------------------------------------------------------

// Deliberate state corruption: delete a connected client's player entity
// out from under the registry. The next invariant audit must fail and
// write a black-box dump naming the trigger.
TEST(BlackBox, InvariantViolationTriggersADump) {
  const std::string dump_dir = "recovery_test_blackbox";
  std::filesystem::remove_all(dump_dir);

  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  core::ServerConfig scfg;
  scfg.check_invariants = true;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 8;
  scfg.recovery.dump_dir = dump_dir;
  core::SequentialServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 2;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();

  p.call_after(vt::seconds(2), [&] {
    // Corrupt: remove the first connected player's entity directly.
    server.world().for_each_entity([&](sim::Entity& e) {
      static bool done = false;
      if (!done && e.type == sim::EntityType::kPlayer) {
        done = true;
        server.world().remove_entity(e.id);
      }
    });
  });
  p.call_after(vt::millis(2200), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  EXPECT_GT(server.invariant_violations(), 0u);
  ASSERT_NE(server.blackbox(), nullptr);
  EXPECT_GE(server.blackbox()->dumps(), 1u);
  const std::string& path = server.blackbox()->last_path();
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path + "/meta.txt"));
  EXPECT_TRUE(std::filesystem::exists(path + "/checkpoint.qckpt"));
  EXPECT_TRUE(std::filesystem::exists(path + "/journal.qjrnl"));
  std::filesystem::remove_all(dump_dir);
}

// --- warm restart under chaos ---------------------------------------------

// A minimal scripted client for the restart choreography: connects, sends
// moves at 30 fps, notices server silence, and re-connects until answered
// — the behavior of a real peer that never learns its server restarted.
struct RestartClient {
  std::unique_ptr<net::Socket> sock;
  std::unique_ptr<net::NetChannel> chan;
  std::string name;
  uint16_t base_port = 0;
  bool connected = false;
  uint32_t player_id = 0;
  uint32_t seq = 1;
  int64_t last_heard_ns = 0;
  int64_t last_connect_ns = -1'000'000'000;
  uint64_t snapshots = 0;
  uint64_t acks = 0;

  void step(vt::Platform& p) {
    const int64_t now = p.now().ns;
    net::Datagram d;
    while (sock->try_recv(d)) {
      net::NetChannel::Incoming info;
      net::ByteReader body(nullptr, 0);
      if (!chan->accept(d, info, body) || info.duplicate_or_old) continue;
      net::ServerMsgType t;
      if (!net::decode_server_type(body, t)) continue;
      last_heard_ns = now;
      if (t == net::ServerMsgType::kConnectAck) {
        net::ConnectAck ack;
        if (net::decode(body, ack)) {
          connected = true;
          player_id = ack.player_id;
          chan->set_remote(ack.assigned_port);
          ++acks;
        }
      } else if (t == net::ServerMsgType::kSnapshot ||
                 t == net::ServerMsgType::kDeltaSnapshot) {
        ++snapshots;
      } else if (t == net::ServerMsgType::kReject) {
        connected = false;
      }
    }
    if (connected && now - last_heard_ns > vt::seconds(1).ns) {
      // Server silent: assume the session is gone, start reconnecting
      // from a fresh channel (sequences restart, same local port).
      connected = false;
      chan = std::make_unique<net::NetChannel>(*sock, base_port);
    }
    if (connected) {
      net::MoveCmd cmd;
      cmd.sequence = seq++;
      cmd.client_time_ns = now;
      cmd.forward = 100.0f;
      chan->send(net::encode(cmd));
    } else if (now - last_connect_ns > vt::millis(400).ns) {
      last_connect_ns = now;
      chan->send(net::encode(net::ConnectMsg{name}));
    }
  }
};

// The satellite acceptance test: kill a live 2-thread server mid-soak,
// restore its latest checkpoint into a fresh instance on the same ports,
// and require every client to resume — zero lost, no duplicate player
// entities, invariants clean.
TEST(WarmRestart, KilledServerRestartsFromCheckpointWithZeroClientsLost) {
  constexpr int kClients = 6;
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(2048);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.client_timeout = vt::seconds(5);
  scfg.check_invariants = true;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 8;

  auto server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  server->start();

  std::vector<RestartClient> clients(kClients);
  bool stop_clients = false;
  for (int i = 0; i < kClients; ++i) {
    auto& c = clients[static_cast<size_t>(i)];
    c.sock = net.open(static_cast<uint16_t>(40000 + i));
    c.chan = std::make_unique<net::NetChannel>(*c.sock, scfg.base_port);
    c.name = "bot-" + std::to_string(i);
    c.base_port = scfg.base_port;
    p.spawn(c.name, vt::Domain::kClientFarm, [&p, &c, &stop_clients] {
      while (!stop_clients) {
        c.step(p);
        p.sleep_for(vt::millis(33));
      }
    });
  }

  // Phase 1: normal play.
  ASSERT_TRUE(p.run_until(t0 + vt::seconds(10)));
  for (const auto& c : clients) EXPECT_TRUE(c.connected);
  EXPECT_EQ(server->connected_clients(), kClients);

  // Phase 2: crash. Stop the server, give its fibers a moment to exit,
  // grab the last published checkpoint, and tear the instance down (which
  // unbinds its ports — the outage the clients now experience).
  server->request_stop();
  ASSERT_TRUE(p.run_until(t0 + vt::seconds(11)));
  ASSERT_TRUE(server->checkpoints()->has());
  const std::vector<uint8_t> image = server->checkpoints()->latest();
  ASSERT_FALSE(image.empty());
  server.reset();

  // Phase 3: the clients shout into the void for a second, notice the
  // silence, and fall back to connect retries.
  ASSERT_TRUE(p.run_until(t0 + vt::seconds(12)));

  // Phase 4: warm restart on the same ports from the checkpoint.
  server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
  ASSERT_EQ(server->restore_from(image), recovery::LoadError::kNone);
  EXPECT_TRUE(server->restored());
  EXPECT_EQ(server->connected_clients(), kClients);  // slots await resume
  server->start();

  // Phase 5: everyone resumes and plays on.
  ASSERT_TRUE(p.run_until(t0 + vt::seconds(20)));
  stop_clients = true;
  server->request_stop();
  p.run();

  for (const auto& c : clients) {
    EXPECT_TRUE(c.connected) << c.name << " did not resume";
    EXPECT_GE(c.acks, 2u) << c.name;  // original connect + resume
    EXPECT_GT(c.snapshots, 0u) << c.name;
  }
  EXPECT_EQ(server->connected_clients(), kClients);
  EXPECT_EQ(server->resumed_clients(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(server->evictions(), 0u);
  // No duplicate player entities: exactly one per client survived the
  // restart (resume re-adopts, never re-spawns).
  size_t players = 0;
  const core::Server& cs = *server;
  cs.world().for_each_entity([&](const sim::Entity& e) {
    if (e.type == sim::EntityType::kPlayer) ++players;
  });
  EXPECT_EQ(players, static_cast<size_t>(kClients));
  EXPECT_EQ(server->invariant_violations(), 0u);
}

// --- journal-tail restore (the shard supervisor's primary path) -----------

// Runs a recorded parallel soak to completion and leaves the testbed
// alive; the caller restores into fresh servers on the same ports.
struct RecordedSoak {
  vt::SimPlatform p;
  net::VirtualNetwork net{p, {}};
  spatial::GameMap map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  std::vector<uint8_t> image;    // last published checkpoint
  std::vector<uint8_t> journal;  // full journal ring at stop
  uint64_t live_digest = 0;      // world digest when the engine stopped
  uint64_t live_frames = 0;
  int live_clients = 0;

  RecordedSoak() {
    scfg.threads = 4;
    scfg.recovery.enabled = true;
    scfg.recovery.checkpoint_interval = 64;
    auto server = std::make_unique<core::ParallelServer>(p, net, map, scfg);
    bots::ClientDriver::Config dcfg;
    dcfg.players = 12;
    bots::ClientDriver driver(p, net, map, *server, dcfg);
    server->start();
    driver.start();
    p.call_after(vt::seconds(6), [&] {
      server->request_stop();
      driver.request_stop();
    });
    p.run();
    EXPECT_TRUE(server->checkpoints()->has());
    image = server->checkpoints()->latest();
    journal = server->recorder()->encode();
    live_digest = recovery::world_digest(server->world());
    live_frames = server->frames();
    live_clients = server->connected_clients();
    // Free the ports for the restored instance.
    server.reset();
  }
};

TEST(TailRestore, ReplaysTheJournalTailToTheFailureFrame) {
  RecordedSoak soak;
  auto restored = std::make_unique<core::ParallelServer>(soak.p, soak.net,
                                                         soak.map, soak.scfg);
  core::Server::RestoreStats stats{};
  ASSERT_EQ(restored->restore_from(soak.image, soak.journal, &stats),
            recovery::LoadError::kNone);
  // The checkpoint alone is stale: the tail re-executed the frames after
  // it, digest-checked per frame, up to the exact frame the engine died.
  EXPECT_GT(stats.tail_frames, 0u);
  EXPECT_TRUE(stats.digest_verified);
  EXPECT_EQ(stats.checkpoint_frame + stats.tail_frames, stats.resume_frame);
  EXPECT_EQ(stats.resume_frame, soak.live_frames);
  EXPECT_GT(stats.tail_moves, 0u);
  // Bit-identity with the live engine is asserted frame by frame inside
  // the restore (digest_verified above, against the sealed digests).
  // The final world digest is NOT compared directly: rebase_times() has
  // already shifted absolute-time fields onto the restart clock.
  EXPECT_EQ(restored->connected_clients(), soak.live_clients);
}

// One replayer: each row rewrites the recorded journal's tail one way,
// and the result goes through both the offline verifier (replay_verify,
// what qserv-replay runs) and the warm restore (restore_from). Both run
// recovery::replay_tail, so their verdicts must agree: identical <->
// kNone, diverged <-> kReplayDiverged, gap <-> setup error / kCorrupt.
enum class Verdict { kIdentical, kDiverged, kGap };

struct TailTamper {
  const char* name;
  Verdict want;
  // Rewrites `frames` (the decoded ring; frames after `c.frame` are the
  // tail) and returns the entity replay_verify must name (0 = none).
  std::function<uint32_t(const recovery::CheckpointData& c,
                         std::vector<recovery::FrameJournal>& frames)>
      apply;
};

// An entity id no world in this suite ever allocates.
constexpr uint32_t kGhost = 900000;

recovery::FrameJournal& first_tail_frame(
    const recovery::CheckpointData& c,
    std::vector<recovery::FrameJournal>& frames) {
  for (auto& fj : frames)
    if (fj.frame == c.frame + 1) return fj;
  ADD_FAILURE() << "no tail frame";
  return frames.back();
}

recovery::JournalRecord* first_tail_move(
    const recovery::CheckpointData& c,
    std::vector<recovery::FrameJournal>& frames) {
  for (auto& fj : frames) {
    if (fj.frame <= c.frame) continue;
    for (auto& rec : fj.records)
      if (rec.kind == recovery::RecordKind::kMoveExec) return &rec;
  }
  ADD_FAILURE() << "no executed move in the tail";
  return nullptr;
}

// Prepends a lifecycle record for kGhost to the tail's first frame.
uint32_t prepend_ghost(const recovery::CheckpointData& c,
                       std::vector<recovery::FrameJournal>& frames,
                       recovery::RecordKind kind) {
  recovery::JournalRecord rec;
  rec.kind = kind;
  rec.entity = kGhost;
  rec.port = 39999;
  rec.name = "ghost";
  rec.hand.origin = c.entities.front().origin;
  auto& records = first_tail_frame(c, frames).records;
  records.insert(records.begin(), rec);
  return kGhost;
}

const TailTamper kTailTampers[] = {
    {"authentic journal", Verdict::kIdentical,
     [](const auto&, auto&) { return 0u; }},
    {"move for a missing entity", Verdict::kDiverged,
     [](const auto& c, auto& frames) {
       first_tail_move(c, frames)->entity = kGhost;
       return kGhost;
     }},
    {"spawn allocates a different id", Verdict::kDiverged,
     [](const auto& c, auto& frames) {
       return prepend_ghost(c, frames, recovery::RecordKind::kConnectSpawn);
     }},
    {"handoff-in allocates a different id", Verdict::kDiverged,
     [](const auto& c, auto& frames) {
       return prepend_ghost(c, frames, recovery::RecordKind::kHandoffIn);
     }},
    {"removal of a missing entity", Verdict::kDiverged,
     [](const auto& c, auto& frames) {
       return prepend_ghost(c, frames, recovery::RecordKind::kDisconnect);
     }},
    // Every record still applies; only the frame digest notices, and the
    // per-entity digests name the moved player.
    {"state tamper only the digest catches", Verdict::kDiverged,
     [](const auto& c, auto& frames) {
       recovery::JournalRecord* move = first_tail_move(c, frames);
       move->cmd.forward += 25.0f;
       return move->entity;
     }},
    // Drop one frame strictly inside the tail (not the first, so the
    // contiguity check, not the anchor check, must catch it).
    {"gap inside the tail", Verdict::kGap,
     [](const auto& c, auto& frames) {
       std::erase_if(frames, [&](const recovery::FrameJournal& fj) {
         return fj.frame == c.frame + 3;
       });
       return 0u;
     }},
};

TEST(TailRestore, VerifyAndRestoreAgreeOnEveryTamperedTail) {
  RecordedSoak soak;
  recovery::CheckpointData c;
  ASSERT_EQ(recovery::decode_checkpoint(soak.image, c),
            recovery::LoadError::kNone);
  recovery::JournalFile authentic;
  ASSERT_EQ(recovery::decode_journal(soak.journal, authentic),
            recovery::LoadError::kNone);
  ASSERT_GT(authentic.frames.back().frame, c.frame + 3);
  ASSERT_FALSE(authentic.frames.back().entity_digests.empty());

  for (const TailTamper& row : kTailTampers) {
    SCOPED_TRACE(row.name);
    recovery::JournalFile jf = authentic;
    const uint32_t entity = row.apply(c, jf.frames);
    const recovery::ReplayResult verify = recovery::replay_verify(c, jf);

    const std::deque<recovery::FrameJournal> ring(jf.frames.begin(),
                                                  jf.frames.end());
    auto server = std::make_unique<core::ParallelServer>(soak.p, soak.net,
                                                         soak.map, soak.scfg);
    const recovery::LoadError restore = server->restore_from(
        soak.image, recovery::encode_journal(jf.seed, jf.threads, ring));
    server.reset();  // free the ports for the next row

    switch (row.want) {
      case Verdict::kIdentical:
        EXPECT_TRUE(verify.ok) << verify.summary();
        EXPECT_EQ(restore, recovery::LoadError::kNone);
        break;
      case Verdict::kDiverged:
        EXPECT_TRUE(verify.diverged) << verify.summary();
        EXPECT_EQ(verify.divergent_entity, entity) << verify.summary();
        EXPECT_EQ(restore, recovery::LoadError::kReplayDiverged);
        break;
      case Verdict::kGap:
        EXPECT_FALSE(verify.diverged) << verify.summary();
        EXPECT_NE(verify.error.find("gap"), std::string::npos)
            << verify.summary();
        EXPECT_EQ(restore, recovery::LoadError::kCorrupt);
        break;
    }
  }
}

// --- checkpoint publication vs worker stalls ------------------------------

// The double buffer's single release-store publication point means a
// reader (shard supervisor, signal dumper) can never observe a
// half-encoded image — even with chaos thread stalls landing on workers
// throughout the run, including inside checkpoint windows. Sample the
// published checkpoint from hub context (the supervisor's vantage) on a
// fast cadence and require every sample to decode cleanly.
TEST(CheckpointIntegrity, WorkerStallsNeverExposeATornCheckpoint) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  for (int i = 0; i < 12; ++i) {
    net.faults().add_thread_stall(t0 + vt::millis(300 + 400 * i),
                                  vt::millis(150), i % 4);
  }
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 4;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = 8;  // publish often
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 12;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();

  std::vector<std::vector<uint8_t>> samples;
  // Captured by reference, not by a self-owning shared_ptr (a cycle that
  // never frees): the local outlives p.run().
  std::function<void()> sample;
  sample = [&] {
    if (server.stop_requested()) return;
    if (server.checkpoints()->has())
      samples.push_back(server.checkpoints()->latest());
    p.call_after(vt::millis(100), sample);
  };
  p.call_after(vt::millis(100), sample);
  p.call_after(vt::seconds(6), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();

  EXPECT_GT(server.stalls_injected(), 0u);
  ASSERT_GT(samples.size(), 20u);
  uint64_t last_frame = 0;
  for (const auto& s : samples) {
    recovery::CheckpointData c;
    ASSERT_EQ(recovery::decode_checkpoint(s, c), recovery::LoadError::kNone);
    EXPECT_GE(c.frame, last_frame);  // publication is monotonic
    last_frame = c.frame;
  }
}

}  // namespace
}  // namespace qserv
