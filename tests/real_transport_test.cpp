// RealUdpTransport: kernel UDP sockets behind the net::Transport seam.
// Everything runs on loopback with high ports; each test uses its own
// port range so parallel ctest shards cannot collide.
#include <gtest/gtest.h>

#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/net/netchan.hpp"
#include "src/net/protocol.hpp"
#include "src/net/real_udp.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"

namespace qserv {
namespace {

TEST(RealUdp, LoopbackEchoAndCounters) {
  vt::RealPlatform p;
  net::RealUdpTransport net(p, {});
  auto a = net.open(36010);
  auto b = net.open(36011);
  auto sel = net.make_selector();
  sel->add(*b);

  ASSERT_TRUE(a->send(36011, {1, 2, 3, 4}));
  ASSERT_TRUE(sel->wait_until(p.now() + vt::seconds(2)));
  net::Datagram d;
  ASSERT_TRUE(b->try_recv(d));
  EXPECT_EQ(d.src_port, 36010);
  EXPECT_EQ(d.dst_port, 36011);
  EXPECT_EQ(d.payload, (std::vector<uint8_t>{1, 2, 3, 4}));

  // Echo back: b learned a's sockaddr from the datagram it received.
  ASSERT_TRUE(b->send(36010, {9, 8, 7}));
  auto sel_a = net.make_selector();
  sel_a->add(*a);
  ASSERT_TRUE(sel_a->wait_until(p.now() + vt::seconds(2)));
  ASSERT_TRUE(a->try_recv(d));
  EXPECT_EQ(d.payload, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(d.src_port, 36011);

  const auto c = net.counters();
  EXPECT_EQ(c.packets_sent, 2u);
  EXPECT_EQ(c.bytes_sent, 7u);
  EXPECT_EQ(c.packets_truncated, 0u);
  EXPECT_EQ(b->received_count(), 1u);
  sel->remove(*b);
  sel_a->remove(*a);
}

TEST(RealUdp, PortCollisionIsTypedNotFatal) {
  vt::RealPlatform p;
  net::RealUdpTransport net(p, {});
  auto first = net.open(36020);
  net::OpenError err = net::OpenError::kNone;
  auto second = net.try_open(36020, &err);
  EXPECT_EQ(second, nullptr);
  EXPECT_EQ(err, net::OpenError::kPortInUse);
  // Releasing the first socket frees the port for a rebind.
  first.reset();
  auto third = net.try_open(36020, &err);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(err, net::OpenError::kNone);
}

TEST(RealUdp, SelectorPokeAndTimeout) {
  vt::RealPlatform p;
  net::RealUdpTransport net(p, {});
  auto s = net.open(36030);
  auto sel = net.make_selector();
  sel->add(*s);
  // Timeout with no traffic.
  const auto t0 = p.now();
  EXPECT_FALSE(sel->wait_until(p.now() + vt::millis(30)));
  EXPECT_GE((p.now() - t0).ns, vt::millis(25).ns);
  // A pre-wait poke interrupts immediately.
  sel->poke();
  EXPECT_FALSE(sel->wait_until(p.now() + vt::seconds(10)));
}

// The selector wakes at once for a datagram parked in a socket's peek
// slot (already out of the kernel, so invisible to epoll) and for one
// still queued in the kernel (epoll is level-triggered).
TEST(RealUdp, SelectorWakesForParkedAndKernelQueuedDatagrams) {
  vt::RealPlatform p;
  net::RealUdpTransport net(p, {});
  auto a = net.open(36050);
  auto b = net.open(36051);
  auto sel = net.make_selector();
  sel->add(*b);
  const auto wakes_at_once = [&] {
    const auto t0 = p.now();
    const bool ready = sel->wait_until(p.now() + vt::seconds(10));
    return ready && (p.now() - t0).ns < vt::seconds(1).ns;
  };

  ASSERT_TRUE(a->send(36051, {1}));
  EXPECT_TRUE(wakes_at_once());  // kernel-queued
  ASSERT_TRUE(b->has_ready());   // peeks: parks it, kernel queue empty
  EXPECT_TRUE(wakes_at_once());  // parked
  ASSERT_TRUE(a->send(36051, {2}));
  EXPECT_TRUE(wakes_at_once());  // parked plus kernel-queued
  net::Datagram d;
  ASSERT_TRUE(b->try_recv(d));
  EXPECT_EQ(d.payload, std::vector<uint8_t>{1});
  EXPECT_TRUE(wakes_at_once());  // the second, still in the kernel
  ASSERT_TRUE(b->try_recv(d));
  EXPECT_EQ(d.payload, std::vector<uint8_t>{2});
  EXPECT_FALSE(sel->wait_until(p.now() + vt::millis(20)));  // drained
  sel->remove(*b);
}

// Oversized datagrams are clamped at recvfrom, counted, and the
// truncated bytes flow into the normal parse path without crashing it —
// the real-socket edge of the protocol-fuzz hardening.
TEST(RealUdp, TruncatedDatagramsClampAndParseSafely) {
  vt::RealPlatform p;
  net::RealUdpTransport::Config cfg;
  cfg.max_datagram = 96;  // tiny clamp so normal packets overrun it
  net::RealUdpTransport net(p, cfg);
  auto attacker = net.open(36040);
  auto victim = net.open(36041);
  auto sel = net.make_selector();
  sel->add(*victim);

  // A valid netchan-framed connect, then junk — both well past the clamp.
  net::NetChannel tx_chan(*attacker, 36041);
  net::ConnectMsg cm;
  cm.name = "trunc-bot";
  std::vector<uint8_t> framed = net::encode(cm);
  framed.resize(700, 0xAB);  // oversized tail
  tx_chan.send(framed);
  std::vector<uint8_t> junk(512, 0x5C);
  attacker->send(36041, junk);

  net::NetChannel rx_chan(*victim, 36040);
  int got = 0, parsed = 0;
  while (got < 2 && sel->wait_until(p.now() + vt::seconds(2))) {
    net::Datagram d;
    while (victim->try_recv(d)) {
      ++got;
      EXPECT_LE(d.payload.size(), cfg.max_datagram);
      net::NetChannel::Incoming info;
      net::ByteReader body(nullptr, 0);
      if (!rx_chan.accept(d, info, body)) continue;
      net::ClientMsgType type{};
      net::ConnectMsg decoded;
      if (net::decode_client_type(body, type) &&
          type == net::ClientMsgType::kConnect && net::decode(body, decoded))
        ++parsed;
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.counters().packets_truncated, 2u);
  // Clamped packets may parse (the cut hit padding) but must never
  // crash; the junk datagram must not survive the header checks.
  EXPECT_LE(parsed, 1);
  sel->remove(*victim);
}

// The full stack — ParallelServer, bots, netchan, protocol — over kernel
// sockets in one process: the same mini-session real_platform_e2e runs
// over the virtual segment.
TEST(RealUdp, EightClientMiniSession) {
  vt::RealPlatform platform;
  net::RealUdpTransport net(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.base_port = 36100;
  scfg.lock_policy = core::LockPolicy::kOptimized;
  core::ParallelServer server(platform, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  dcfg.first_local_port = 36200;
  dcfg.frame_interval = vt::millis(10);
  bots::ClientDriver driver(platform, net, map, server, dcfg);

  server.start();
  driver.start();
  platform.call_after(vt::millis(1500), [&] {
    server.request_stop();
    driver.request_stop();
  });
  platform.join_all();

  int connected = 0;
  uint64_t replies = 0;
  for (const auto& c : driver.clients()) {
    connected += c->connected() ? 1 : 0;
    replies += c->metrics().replies;
  }
  EXPECT_EQ(connected, 8);
  EXPECT_GT(replies, 100u);
  EXPECT_GT(server.frames(), 20u);
  const auto c = net.counters();
  EXPECT_GT(c.packets_sent, 200u);
  EXPECT_GT(c.bytes_sent, 10'000u);
  EXPECT_EQ(c.packets_truncated, 0u);
}

}  // namespace
}  // namespace qserv
