// Unit tests for the session layer (core/client_registry.hpp): slot reuse
// must not leak the previous occupant's delta baselines, evicted-port
// memory must answer exactly one kEvicted per port, migration must hand
// ownership (and the live channel) to the new thread, and the per-run
// counters must reset at the warmup boundary without losing the lifetime
// ones. Plus a Server-level regression test that reset_stats() actually
// reaches those counters — pre-refactor, reassignments survived the
// warmup boundary and leaked warmup work into the measurement window.
// Last, the InvariantChecker's detections over a registry and a world
// built the same way, one seeded corruption per case.
#include <gtest/gtest.h>

#include <string>

#include "src/core/client_registry.hpp"
#include "src/core/invariant_checker.hpp"
#include "src/core/sequential_server.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/sim/world.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::core {
namespace {

struct Fixture {
  Fixture() {
    cfg.max_clients = 4;
    cfg.recovery.enabled = true;  // evicted-port memory is gated on this
  }

  ClientRegistry& registry() {
    if (!reg) reg = std::make_unique<ClientRegistry>(platform, cfg);
    return *reg;
  }

  vt::SimPlatform platform;
  ServerConfig cfg;
  std::unique_ptr<ClientRegistry> reg;
};

TEST(ClientRegistry, SlotReuseClearsStaleDeltaState) {
  Fixture f;
  net::VirtualNetwork net(f.platform, {});
  auto sock0 = net.open(5000);
  ClientRegistry& reg = f.registry();
  vt::LockGuard g(reg.mutex());

  const int slot = reg.find_free_locked();
  ASSERT_EQ(slot, 0);
  reg.init_pending_slot_locked(slot, 7001, 0, "first");
  ClientSlot& c = reg.slot(slot);
  reg.spawn_slot_locked(c, 1, 0, *sock0, 1);
  // Simulate a session that accumulated delta baselines and sequencing.
  c.last_seq = 941;
  c.client_baseline_frame = 1204;
  c.history.push_back({1204, {}});
  c.moves_since_scan = 9;

  reg.unbind_port_locked(c.remote_port);
  reg.release_slot_locked(c);
  EXPECT_FALSE(c.in_use);
  EXPECT_TRUE(c.history.empty());

  // The freed slot is found again and must come up clean: the new client
  // has reconstructed nothing, so any inherited baseline would make the
  // server send deltas against a snapshot the peer never saw.
  ASSERT_EQ(reg.find_free_locked(), slot);
  reg.init_pending_slot_locked(slot, 7002, 1, "second");
  EXPECT_TRUE(c.in_use);
  EXPECT_TRUE(c.pending_spawn);
  EXPECT_EQ(c.remote_port, 7002);
  EXPECT_EQ(c.name, "second");
  EXPECT_EQ(c.connect_tid, 1);
  EXPECT_EQ(c.last_seq, 0u);
  EXPECT_EQ(c.client_baseline_frame, 0u);
  EXPECT_TRUE(c.history.empty());
  EXPECT_EQ(c.moves_since_scan, 0u);
  EXPECT_EQ(reg.index_of_port_locked(7002), slot);
  EXPECT_EQ(reg.index_of_port_locked(7001), -1);
}

TEST(ClientRegistry, EvictedPortAnswersExactlyOnce) {
  Fixture f;
  ClientRegistry& reg = f.registry();
  {
    vt::LockGuard g(reg.mutex());
    reg.remember_evicted_locked(7001);
    reg.remember_evicted_locked(7001);  // idempotent while remembered
    ASSERT_EQ(reg.remembered_ports_locked().size(), 1u);
  }
  // One kEvicted per port: a straggler streaming moves must not turn the
  // memory into a reject storm.
  EXPECT_TRUE(reg.consume_remembered_eviction(7001));
  EXPECT_FALSE(reg.consume_remembered_eviction(7001));
  EXPECT_FALSE(reg.consume_remembered_eviction(7999));
}

TEST(ClientRegistry, EvictedPortMemoryInertWithoutRecovery) {
  Fixture f;
  f.cfg.recovery.enabled = false;
  ClientRegistry& reg = f.registry();
  {
    vt::LockGuard g(reg.mutex());
    reg.remember_evicted_locked(7001);
    EXPECT_TRUE(reg.remembered_ports_locked().empty());
  }
  EXPECT_FALSE(reg.consume_remembered_eviction(7001));
}

TEST(ClientRegistry, MigrationHandsOwnershipAndRebindsChannel) {
  Fixture f;
  net::VirtualNetwork net(f.platform, {});
  auto sock0 = net.open(5000);
  auto sock1 = net.open(5001);
  f.cfg.threads = 2;
  ClientRegistry& reg = f.registry();
  vt::LockGuard g(reg.mutex());

  reg.init_pending_slot_locked(0, 7001, 0, "mover");
  ClientSlot& c = reg.slot(0);
  reg.spawn_slot_locked(c, 1, 0, *sock0, 1);

  reg.migrate_slot_locked(c, 1, *sock1);
  EXPECT_EQ(c.owner_thread, 1);
  // The next snapshot must re-teach the port even if the client has no
  // request pending on the new owner, so the new owner queues it.
  EXPECT_TRUE(c.notify_port);
  EXPECT_EQ(c.reply_queue, 1);
  EXPECT_EQ(reg.reply_queue(1), std::vector<int>{0});
  EXPECT_EQ(reg.active_clients(0b01), 0);
  EXPECT_EQ(reg.active_clients(0b10), 1);
  // Same channel object: sequencing state survives the migration so the
  // peer sees one continuous stream.
  ASSERT_NE(c.chan, nullptr);
}

TEST(ClientRegistry, ResumeResetsSequencesAndBaselines) {
  Fixture f;
  net::VirtualNetwork net(f.platform, {});
  auto sock0 = net.open(5000);
  ClientRegistry& reg = f.registry();
  vt::LockGuard g(reg.mutex());

  reg.init_pending_slot_locked(0, 7001, 0, "resumer");
  ClientSlot& c = reg.slot(0);
  reg.spawn_slot_locked(c, 1, 0, *sock0, 1);
  c.awaiting_resume = true;
  c.last_seq = 500;
  c.client_baseline_frame = 77;
  c.history.push_back({77, {}});

  reg.resume_slot_locked(c, *sock0, 41);
  EXPECT_FALSE(c.awaiting_resume);
  EXPECT_TRUE(c.notify_port);
  EXPECT_EQ(c.events_through, 41u);
  // The reconnected peer restarts its sequences and has reconstructed no
  // snapshot; stale state would reject all its fresh moves.
  EXPECT_EQ(c.last_seq, 0u);
  EXPECT_EQ(c.client_baseline_frame, 0u);
  EXPECT_TRUE(c.history.empty());
  ASSERT_NE(c.chan, nullptr);
}

// Resume may run on a thread that does not own the client, so its reply
// is queued only at the next flip; every other site queues directly, once
// per owner however often it is called.
TEST(ClientRegistry, ReplyQueueingAndActiveCounts) {
  Fixture f;
  f.cfg.threads = 2;
  net::VirtualNetwork net(f.platform, {});
  auto sock0 = net.open(5000);
  auto sock1 = net.open(5001);
  ClientRegistry& reg = f.registry();
  std::vector<int> pending;
  {
    vt::LockGuard g(reg.mutex());
    reg.init_pending_slot_locked(0, 7001, 0, "a");
    reg.init_pending_slot_locked(1, 7002, 1, "b");
    EXPECT_EQ(reg.active_clients(~0ull), 0);  // not spawned yet
    reg.take_pending_lifecycle_locked(pending);
    EXPECT_EQ(pending, (std::vector<int>{0, 1}));
    reg.spawn_slot_locked(reg.slot(0), 10, 0, *sock0, 5);
    reg.spawn_slot_locked(reg.slot(1), 11, 1, *sock1, 5);
    EXPECT_EQ(reg.active_clients(0b01), 1);
    EXPECT_EQ(reg.active_clients(0b11), 2);
    // Covered clients below a slot, for the reply phase's in-order
    // buffer-update charges.
    EXPECT_EQ(reg.active_below(0b11, 0), 0);
    EXPECT_EQ(reg.active_below(0b11, 1), 1);
    EXPECT_EQ(reg.active_below(0b10, 1), 0);
    EXPECT_EQ(reg.active_below(0b11, 2), 2);
  }
  ClientSlot& a = reg.slot(0);
  reg.queue_reply(a);
  reg.queue_reply(a);
  EXPECT_EQ(reg.reply_queue(0), std::vector<int>{0});

  ClientSlot& b = reg.slot(1);
  {
    vt::LockGuard g(reg.mutex());
    b.awaiting_resume = true;
    reg.resume_slot_locked(b, *sock1, 7);
  }
  EXPECT_TRUE(reg.reply_queue(1).empty());
  reg.flush_deferred_replies();
  EXPECT_EQ(reg.reply_queue(1), std::vector<int>{1});
  EXPECT_EQ(b.reply_queue, 1);

  // A disconnecting client stops counting and is listed for the master
  // window once, however many disconnects arrive.
  {
    vt::LockGuard g(reg.mutex());
    reg.mark_disconnect_locked(b);
    reg.mark_disconnect_locked(b);
    EXPECT_EQ(reg.active_clients(0b10), 0);
    reg.take_pending_lifecycle_locked(pending);
    EXPECT_EQ(pending, std::vector<int>{1});
    reg.release_slot_locked(b);
    EXPECT_EQ(b.reply_queue, -1);  // its queue entry is now stale
    reg.release_slot_locked(a);
    EXPECT_EQ(reg.active_clients(~0ull), 0);
  }
}

TEST(ClientRegistry, ResetRunCountersKeepsLifetimeOnes) {
  Fixture f;
  ClientRegistry& reg = f.registry();
  reg.counters.evictions = 3;
  reg.counters.rejected_connects = 2;
  reg.counters.rejected_busy = 1;
  reg.counters.reassignments = 14;
  reg.counters.stall_reassignments = 5;
  reg.counters.governor_evictions = 1;
  reg.counters.resumed_clients = 4;

  reg.reset_run_counters();
  EXPECT_EQ(reg.counters.evictions, 0u);
  EXPECT_EQ(reg.counters.rejected_connects, 0u);
  EXPECT_EQ(reg.counters.rejected_busy, 0u);
  EXPECT_EQ(reg.counters.reassignments, 0u);
  EXPECT_EQ(reg.counters.stall_reassignments, 0u);
  EXPECT_EQ(reg.counters.governor_evictions, 0u);
  // restore/resume happens before the measurement window and is
  // inspected after it — the warmup boundary must not erase it.
  EXPECT_EQ(reg.counters.resumed_clients, 4u);
}

// Regression: reset_stats() (the warmup boundary) must zero the per-run
// session counters. Before the pipeline refactor, reassignments_ /
// stall_reassignments_ / evictions_ survived reset_stats, so a
// measurement window reported warmup-era migrations.
TEST(ServerResetStats, ZeroesPerRunSessionCounters) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  SequentialServer server(p, net, map, ServerConfig{});

  ClientRegistry& reg = server.registry();
  reg.counters.reassignments = 11;
  reg.counters.stall_reassignments = 7;
  reg.counters.evictions = 3;
  reg.counters.rejected_connects = 2;
  reg.counters.rejected_busy = 2;
  reg.counters.governor_evictions = 1;
  reg.counters.resumed_clients = 6;
  EXPECT_EQ(server.registry().counters.reassignments, 11u);

  server.reset_stats();
  EXPECT_EQ(server.registry().counters.reassignments, 0u);
  EXPECT_EQ(server.registry().counters.stall_reassignments, 0u);
  EXPECT_EQ(server.registry().counters.evictions, 0u);
  EXPECT_EQ(server.registry().counters.rejected_connects, 0u);
  EXPECT_EQ(server.registry().counters.rejected_busy, 0u);
  EXPECT_EQ(server.registry().counters.governor_evictions, 0u);
  EXPECT_EQ(server.registry().counters.resumed_clients, 6u);
}

// A consistent registry + world with two clients connected the way the
// master window spawns them (pending slot, player entity, channel), and
// a checker over both. Each case below corrupts one structure.
struct AuditFixture {
  AuditFixture() {
    connect(7001);
    connect(7002);
  }

  void connect(uint16_t port) {
    const int slot = reg.find_free_locked();
    reg.init_pending_slot_locked(slot, port, 0, std::to_string(port));
    ClientSlot& c = reg.slot(slot);
    reg.spawn_slot_locked(c, world.spawn_player(c.name).id, 0, *sock, 1);
  }

  // True when some recorded message contains `text`.
  bool reported(const std::string& text) const {
    for (const std::string& m : checker.messages())
      if (m.find(text) != std::string::npos) return true;
    return false;
  }

  Fixture f;
  net::VirtualNetwork net{f.platform, {}};
  std::unique_ptr<net::Socket> sock = net.open(5000);
  spatial::GameMap map = spatial::make_large_deathmatch(7);
  sim::World world{map, sim::World::Config{}};
  ClientRegistry& reg = f.registry();
  vt::LockGuard lock{reg.mutex()};
  InvariantChecker checker{reg, world};
};

TEST(InvariantChecker, ConsistentStateHasNoViolations) {
  AuditFixture a;
  EXPECT_EQ(a.checker.run(), 0);
  EXPECT_EQ(a.checker.total_violations(), 0u);
  EXPECT_TRUE(a.checker.messages().empty());
}

TEST(InvariantChecker, DetectsOrphanPlayerEntity) {
  AuditFixture a;
  const uint32_t ghost = a.world.spawn_player("ghost").id;
  // The orphan itself, and the player count no longer matching.
  EXPECT_EQ(a.checker.run(), 2);
  EXPECT_TRUE(a.reported("player entity " + std::to_string(ghost) +
                         " (ghost) has no client slot"));
  EXPECT_TRUE(a.reported("3 player entities for 2 connected clients"));
}

TEST(InvariantChecker, DetectsSlotReferencingDeadEntity) {
  AuditFixture a;
  const uint32_t id = a.reg.slot(0).entity_id;
  a.world.remove_entity(id);
  EXPECT_EQ(a.checker.run(), 2);
  EXPECT_TRUE(
      a.reported("slot 0 references dead entity " + std::to_string(id)));
  EXPECT_TRUE(a.reported("1 player entities for 2 connected clients"));
}

TEST(InvariantChecker, DetectsPortMapEntryForFreedSlot) {
  AuditFixture a;
  ClientSlot& c = a.reg.slot(1);
  a.world.remove_entity(c.entity_id);
  a.reg.release_slot_locked(c);  // without unbinding port 7002
  EXPECT_EQ(a.checker.run(), 2);
  EXPECT_TRUE(a.reported("port 7002 maps to freed slot 1"));
  EXPECT_TRUE(a.reported("port map has 2 entries for 1 in-use slots"));
}

TEST(InvariantChecker, DetectsEntityLinkedOutsideItsAreanode) {
  AuditFixture a;
  sim::Entity* e = a.world.get(a.reg.slot(0).entity_id);
  ASSERT_NE(e, nullptr);
  const int linked = e->areanode;
  ASSERT_GE(linked, 0);
  e->areanode = linked == 0 ? 1 : 0;  // the node lists stay as they were
  EXPECT_EQ(a.checker.run(), 1);
  EXPECT_TRUE(a.reported("entity " + std::to_string(e->id) +
                         " listed in node " + std::to_string(linked) +
                         " but claims node " + std::to_string(e->areanode)));
}

TEST(InvariantChecker, MessagesStopAtTheCapWhileTheCountGoesOn) {
  AuditFixture a;
  for (int i = 0; i < 70; ++i) a.world.spawn_player("ghost");
  // 70 orphans plus the player-count mismatch, per run.
  EXPECT_EQ(a.checker.run(), 71);
  EXPECT_EQ(a.checker.messages().size(), 64u);
  EXPECT_EQ(a.checker.total_violations(), 71u);
  EXPECT_EQ(a.checker.run(), 71);
  EXPECT_EQ(a.checker.messages().size(), 64u);
  EXPECT_EQ(a.checker.total_violations(), 142u);
  EXPECT_EQ(a.checker.runs(), 2u);
}

}  // namespace
}  // namespace qserv::core
