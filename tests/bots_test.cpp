// Bot behaviour and client endpoint tests.
#include <gtest/gtest.h>

#include "src/net/virtual_udp.hpp"
#include "src/bots/bot.hpp"
#include "src/bots/client.hpp"
#include "src/sim/entity.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::bots {
namespace {

net::Snapshot snapshot_at(const Vec3& origin) {
  net::Snapshot s;
  s.origin = origin;
  s.health = 100;
  return s;
}

net::EntityUpdate enemy_at(uint32_t id, const Vec3& origin) {
  net::EntityUpdate e;
  e.id = id;
  e.type = static_cast<uint8_t>(sim::EntityType::kPlayer);
  e.origin = origin;
  e.state = 1;  // alive
  return e;
}

Bot::Config aggressive() {
  Bot::Config c;
  c.aggression = 1.0f;
  c.grenade_ratio = 0.0f;
  c.seed = 7;
  return c;
}

TEST(Bot, SequencesAndTimestampsMoves) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, {});
  const auto a = bot.think(snapshot_at({0, 0, 24}), 1, vt::TimePoint{1000}, 33);
  const auto b = bot.think(snapshot_at({0, 0, 24}), 1, vt::TimePoint{2000}, 33);
  EXPECT_EQ(a.sequence + 1, b.sequence);
  EXPECT_EQ(a.client_time_ns, 1000);
  EXPECT_EQ(b.client_time_ns, 2000);
  EXPECT_EQ(a.msec, 33);
}

TEST(Bot, WandersAtFullSpeedTowardWaypoints) {
  const auto map = spatial::make_large_deathmatch(7);
  Bot bot(map, {});
  const auto cmd =
      bot.think(snapshot_at(map.waypoints[0].pos), 1, vt::TimePoint{}, 33);
  EXPECT_FLOAT_EQ(cmd.forward, sim::kMaxPlayerSpeed);
  EXPECT_EQ(cmd.buttons & net::kButtonAttack, 0);  // nobody to fight
}

TEST(Bot, AttacksVisibleEnemyAndFacesIt) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, aggressive());
  auto snap = snapshot_at({0, 0, 24});
  snap.entities.push_back(enemy_at(9, {300, 0, 24}));  // due east
  const auto cmd = bot.think(snap, 1, vt::TimePoint{} + vt::seconds(1), 33);
  EXPECT_NE(cmd.buttons & net::kButtonAttack, 0);
  EXPECT_NEAR(cmd.yaw_deg, 0.0f, 1.0f);  // facing +x
}

TEST(Bot, RespectsClientSideCooldown) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, aggressive());
  auto snap = snapshot_at({0, 0, 24});
  snap.entities.push_back(enemy_at(9, {300, 0, 24}));
  vt::TimePoint now{};
  int attacks = 0;
  const int frames = 60;  // 60 x 33 ms ~ 2 s
  for (int i = 0; i < frames; ++i) {
    now += vt::millis(33);
    const auto cmd = bot.think(snap, 1, now, 33);
    attacks += (cmd.buttons & net::kButtonAttack) != 0 ? 1 : 0;
  }
  // 2 s at one shot per kAttackCooldown (100 ms): about 20 attacks, far
  // fewer than 60 frames.
  EXPECT_GT(attacks, 10);
  EXPECT_LT(attacks, 25);
}

TEST(Bot, IgnoresDeadAndOutOfRangeEnemies) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, aggressive());
  auto snap = snapshot_at({0, 0, 24});
  auto corpse = enemy_at(9, {200, 0, 24});
  corpse.state = 0;  // dead
  snap.entities.push_back(corpse);
  snap.entities.push_back(enemy_at(10, {5000, 0, 24}));  // far away
  const auto cmd = bot.think(snap, 1, vt::TimePoint{} + vt::seconds(5), 33);
  EXPECT_EQ(cmd.buttons & (net::kButtonAttack | net::kButtonThrow), 0);
}

TEST(Bot, DoesNotTargetItself) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, aggressive());
  auto snap = snapshot_at({0, 0, 24});
  snap.entities.push_back(enemy_at(1, {100, 0, 24}));  // own id!
  const auto cmd = bot.think(snap, /*self_id=*/1,
                             vt::TimePoint{} + vt::seconds(5), 33);
  EXPECT_EQ(cmd.buttons & (net::kButtonAttack | net::kButtonThrow), 0);
}

TEST(Bot, PitchesTowardElevatedEnemies) {
  const auto map = spatial::make_arena(1024);
  Bot bot(map, aggressive());
  auto snap = snapshot_at({0, 0, 24});
  snap.entities.push_back(enemy_at(9, {200, 0, 224}));  // 200 up
  const auto cmd = bot.think(snap, 1, vt::TimePoint{} + vt::seconds(1), 33);
  EXPECT_LT(cmd.pitch_deg, -20.0f);  // negative pitch = aiming up
}

TEST(Bot, GrenadeRatioSelectsThrows) {
  const auto map = spatial::make_arena(1024);
  Bot::Config cfg = aggressive();
  cfg.grenade_ratio = 1.0f;
  Bot bot(map, cfg);
  auto snap = snapshot_at({0, 0, 24});
  snap.entities.push_back(enemy_at(9, {300, 0, 24}));
  const auto cmd = bot.think(snap, 1, vt::TimePoint{} + vt::seconds(1), 33);
  EXPECT_NE(cmd.buttons & net::kButtonThrow, 0);
  EXPECT_EQ(cmd.buttons & net::kButtonAttack, 0);
}

TEST(Bot, DeterministicForSeed) {
  const auto map = spatial::make_large_deathmatch(7);
  auto run = [&](uint64_t seed) {
    Bot::Config cfg;
    cfg.seed = seed;
    Bot bot(map, cfg);
    uint64_t fp = 0;  // unsigned: the fingerprint wraps by design
    vt::TimePoint now{};
    auto snap = snapshot_at(map.waypoints[0].pos);
    for (int i = 0; i < 100; ++i) {
      now += vt::millis(33);
      const auto cmd = bot.think(snap, 1, now, 33);
      fp = fp * 31 + static_cast<uint64_t>(
                         static_cast<int64_t>(cmd.yaw_deg * 10) + cmd.buttons);
    }
    return fp;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Client, ConnectRetriesUntilServerExists) {
  // The client starts before any server port is open; a late server must
  // still pick it up thanks to connect retries.
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  Client::Config cc;
  cc.local_port = 40000;
  cc.server_port = 27500;
  cc.name = "late";
  Client client(p, net, map, cc);
  p.spawn("client", vt::Domain::kClientFarm, [&] { client.run(); });

  // Fake server appears after 1.2 s and acks the first connect it sees.
  std::unique_ptr<net::Socket> server_sock;
  p.spawn("server", vt::Domain::kServer, [&] {
    p.sleep_for(vt::millis(1200));
    server_sock = net.open(27500);
    auto sel = net.make_selector();
    sel->add(*server_sock);
    net::NetChannel chan(*server_sock, 40000);
    while (p.now() < vt::TimePoint{} + vt::seconds(4)) {
      if (!sel->wait_until(p.now() + vt::millis(50))) continue;
      net::Datagram d;
      while (server_sock->try_recv(d)) {
        net::NetChannel::Incoming info;
        net::ByteReader body(nullptr, 0);
        if (!chan.accept(d, info, body)) continue;
        net::ClientMsgType t;
        if (!decode_client_type(body, t)) continue;
        if (t == net::ClientMsgType::kConnect) {
          net::ConnectAck ack;
          ack.player_id = 42;
          ack.assigned_port = 27500;
          chan.send(net::encode(ack));
        }
      }
    }
    client.request_stop();
  });
  p.run();
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.player_id(), 42u);
}

// Regression: a reconnecting client whose fresh port is already taken
// must step to the next port (counting the collision) instead of
// aborting the process, which is what the old hard-checked open did.
TEST(Client, ReopenRetriesPastOccupiedFreshPort) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_arena(1024);
  // Squat on the port the client's first reconnect will want.
  auto squatter = net.open(41000);

  Client::Config cc;
  cc.local_port = 40000;
  cc.server_port = 27500;
  cc.name = "collide";
  cc.server_silence_timeout = vt::millis(400);
  uint16_t next_fresh = 41000;
  cc.fresh_port = [&next_fresh] { return next_fresh++; };
  Client client(p, net, map, cc);
  client.begin_measurement();
  p.spawn("client", vt::Domain::kClientFarm, [&] { client.run(); });

  // A server that acks every connect, then goes silent — so the client's
  // silence timeout fires and it reconnects from a fresh (squatted) port.
  auto server_sock = net.open(27500);
  uint16_t reconnect_src = 0;
  p.spawn("server", vt::Domain::kServer, [&] {
    auto sel = net.make_selector();
    sel->add(*server_sock);
    while (p.now() < vt::TimePoint{} + vt::seconds(3)) {
      if (!sel->wait_until(p.now() + vt::millis(50))) continue;
      net::Datagram d;
      while (server_sock->try_recv(d)) {
        net::NetChannel chan(*server_sock, d.src_port);
        net::NetChannel::Incoming info;
        net::ByteReader body(nullptr, 0);
        if (!chan.accept(d, info, body)) continue;
        net::ClientMsgType t;
        if (!decode_client_type(body, t)) continue;
        if (t != net::ClientMsgType::kConnect) continue;
        if (d.src_port != 40000) {
          reconnect_src = d.src_port;  // the reconnect arrived
          continue;                    // stay silent: one reconnect is enough
        }
        net::ConnectAck ack;
        ack.player_id = 7;
        ack.assigned_port = 27500;
        chan.send(net::encode(ack));
      }
    }
    client.request_stop();
  });
  p.run();

  EXPECT_GE(client.metrics().silence_reconnects, 1u);
  EXPECT_GE(client.metrics().port_collisions, 1u);
  // The squatter kept its port; the client stepped past it to 41001.
  EXPECT_EQ(reconnect_src, 41001);
}

}  // namespace
}  // namespace qserv::bots
