#include <gtest/gtest.h>

#include <vector>

#include "src/net/bytestream.hpp"
#include "src/net/netchan.hpp"
#include "src/net/protocol.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::net {
namespace {

using vt::Domain;
using vt::millis;
using vt::micros;
using vt::TimePoint;

TEST(ByteStream, RoundTripsAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f32(3.25f);
  w.vec3({1.5f, -2.5f, 100.0f});
  w.str("hello, quake");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.vec3(), Vec3(1.5f, -2.5f, 100.0f));
  EXPECT_EQ(r.str(), "hello, quake");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteStream, OverflowPoisonsReader) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_TRUE(r.overflowed());
  EXPECT_FALSE(r.ok());
  // Further reads stay zero and safe.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.str(), "");
}

TEST(ByteStream, TruncatedStringIsSafe) {
  ByteWriter w;
  w.u16(100);  // claims 100 bytes, provides none
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Protocol, MoveCmdRoundTrip) {
  MoveCmd m;
  m.sequence = 77;
  m.client_time_ns = 123456789;
  m.msec = 30;
  m.yaw_deg = 45.0f;
  m.pitch_deg = -10.0f;
  m.forward = 320.0f;
  m.side = -40.0f;
  m.up = 0.0f;
  m.buttons = kButtonAttack | kButtonJump;
  const auto bytes = encode(m);
  ByteReader r(bytes);
  ClientMsgType type;
  ASSERT_TRUE(decode_client_type(r, type));
  EXPECT_EQ(type, ClientMsgType::kMove);
  MoveCmd out;
  ASSERT_TRUE(decode(r, out));
  EXPECT_EQ(out.sequence, m.sequence);
  EXPECT_EQ(out.client_time_ns, m.client_time_ns);
  EXPECT_EQ(out.msec, m.msec);
  EXPECT_FLOAT_EQ(out.yaw_deg, m.yaw_deg);
  EXPECT_FLOAT_EQ(out.forward, m.forward);
  EXPECT_EQ(out.buttons, m.buttons);
}

TEST(Protocol, ConnectRoundTrip) {
  const auto bytes = encode(ConnectMsg{"bot-42"});
  ByteReader r(bytes);
  ClientMsgType type;
  ASSERT_TRUE(decode_client_type(r, type));
  EXPECT_EQ(type, ClientMsgType::kConnect);
  ConnectMsg out;
  ASSERT_TRUE(decode(r, out));
  EXPECT_EQ(out.name, "bot-42");
}

TEST(Protocol, SnapshotRoundTrip) {
  Snapshot s;
  s.server_frame = 999;
  s.ack_sequence = 55;
  s.client_time_echo_ns = 42;
  s.origin = {1, 2, 3};
  s.velocity = {-1, 0, 9};
  s.health = 75;
  s.armor = 50;
  s.frags = -2;
  s.entities.push_back({7, 1, {10, 20, 30}, 90.0f, 2});
  s.entities.push_back({9, 2, {-5, 0, 24}, 180.0f, 0});
  s.events.push_back({3, 7, 9, {0, 0, 0}});
  const auto bytes = encode(s);
  ByteReader r(bytes);
  ServerMsgType type;
  ASSERT_TRUE(decode_server_type(r, type));
  EXPECT_EQ(type, ServerMsgType::kSnapshot);
  Snapshot out;
  ASSERT_TRUE(decode(r, out));
  EXPECT_EQ(out.server_frame, 999u);
  EXPECT_EQ(out.ack_sequence, 55u);
  EXPECT_EQ(out.frags, -2);
  ASSERT_EQ(out.entities.size(), 2u);
  EXPECT_EQ(out.entities[0].id, 7u);
  EXPECT_EQ(out.entities[1].origin, Vec3(-5, 0, 24));
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].a, 7u);
}

TEST(Protocol, GarbageIsRejected) {
  const std::vector<uint8_t> garbage{0xff, 0x00, 0x13};
  ByteReader r(garbage);
  ClientMsgType type;
  EXPECT_FALSE(decode_client_type(r, type));
  ByteReader r2(garbage);
  ServerMsgType stype;
  EXPECT_FALSE(decode_server_type(r2, stype));
}

VirtualNetwork::Config lossless() {
  VirtualNetwork::Config c;
  c.latency = millis(2);
  c.jitter = {};
  c.loss = 0.0f;
  return c;
}

TEST(VirtualUdp, OpenCollisionIsTypedNotFatal) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto first = net.open(700);
  OpenError err = OpenError::kNone;
  auto second = net.try_open(700, &err);
  EXPECT_EQ(second, nullptr);
  EXPECT_EQ(err, OpenError::kPortInUse);
  // Releasing the first socket frees the port.
  first.reset();
  auto third = net.try_open(700, &err);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(err, OpenError::kNone);
  EXPECT_EQ(third->port(), 700);
}

TEST(VirtualUdp, DeliversAfterLatency) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto a = net.open(1000);
  auto b = net.open(2000);
  TimePoint got{};
  std::vector<uint8_t> payload;
  p.spawn("rx", Domain::kServer, [&] {
    auto sel = net.make_selector();
    sel->add(*b);
    ASSERT_TRUE(sel->wait_until(TimePoint{} + millis(100)));
    Datagram d;
    ASSERT_TRUE(b->try_recv(d));
    got = p.now();
    payload = d.payload;
    EXPECT_EQ(d.src_port, 1000);
    EXPECT_EQ(d.dst_port, 2000);
  });
  p.spawn("tx", Domain::kClientFarm, [&] {
    p.sleep_for(millis(1));
    EXPECT_TRUE(a->send(2000, {1, 2, 3}));
  });
  p.run();
  EXPECT_EQ(got.ns, millis(3).ns);  // sent at 1ms + 2ms latency
  EXPECT_EQ(payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(VirtualUdp, NotReadyBeforeDeliveryTime) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto a = net.open(1);
  auto b = net.open(2);
  p.spawn("t", Domain::kServer, [&] {
    a->send(2, {9});
    Datagram d;
    EXPECT_FALSE(b->try_recv(d));  // still in flight
    EXPECT_EQ(b->queued(), 1u);
    p.sleep_for(millis(2));
    EXPECT_TRUE(b->try_recv(d));
  });
  p.run();
}

TEST(VirtualUdp, SelectorTimesOutWithoutTraffic) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto s = net.open(5);
  TimePoint woke{};
  p.spawn("t", Domain::kServer, [&] {
    auto sel = net.make_selector();
    sel->add(*s);
    EXPECT_FALSE(sel->wait_until(TimePoint{} + millis(7)));
    woke = p.now();
  });
  p.run();
  EXPECT_EQ(woke.ns, millis(7).ns);
}

TEST(VirtualUdp, SelectorWaitsAcrossMultipleSockets) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto s1 = net.open(11);
  auto s2 = net.open(12);
  auto tx = net.open(13);
  int got_on = 0;
  p.spawn("rx", Domain::kServer, [&] {
    auto sel = net.make_selector();
    sel->add(*s1);
    sel->add(*s2);
    ASSERT_TRUE(sel->wait_until(TimePoint{} + millis(100)));
    Datagram d;
    if (s2->try_recv(d)) got_on = 2;
    if (s1->try_recv(d)) got_on = 1;
  });
  p.spawn("tx", Domain::kClientFarm, [&] {
    p.sleep_for(millis(3));
    tx->send(12, {1});
  });
  p.run();
  EXPECT_EQ(got_on, 2);
}

TEST(VirtualUdp, PokeInterruptsWait) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto s = net.open(20);
  auto sel = net.make_selector();
  sel->add(*s);
  TimePoint woke{};
  p.spawn("rx", Domain::kServer, [&] {
    EXPECT_FALSE(sel->wait_until(TimePoint{} + vt::seconds(10)));
    woke = p.now();
  });
  p.call_after(millis(5), [&] { sel->poke(); });
  p.run();
  EXPECT_EQ(woke.ns, millis(5).ns);
}

TEST(VirtualUdp, SendToClosedPortIsCounted) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto a = net.open(1);
  p.spawn("t", Domain::kServer, [&] {
    EXPECT_FALSE(a->send(999, {1, 2}));
  });
  p.run();
  EXPECT_EQ(net.packets_to_closed_ports(), 1u);
}

TEST(VirtualUdp, ReceiveBufferOverflowDropsExcess) {
  vt::SimPlatform p;
  auto cfg = lossless();
  cfg.socket_buffer = 16;
  VirtualNetwork net(p, cfg);
  auto a = net.open(1);
  auto b = net.open(2);
  int delivered = 0;
  p.spawn("t", Domain::kServer, [&] {
    for (int i = 0; i < 100; ++i) a->send(2, {static_cast<uint8_t>(i)});
    p.sleep_for(millis(10));
    Datagram d;
    while (b->try_recv(d)) ++delivered;
  });
  p.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.packets_overflowed(), 84u);
}

TEST(VirtualUdp, LossModelDropsRoughlyTheConfiguredFraction) {
  vt::SimPlatform p;
  auto cfg = lossless();
  cfg.loss = 0.25f;
  cfg.seed = 99;
  cfg.socket_buffer = 4096;
  VirtualNetwork net(p, cfg);
  auto a = net.open(1);
  auto b = net.open(2);
  int delivered = 0;
  p.spawn("t", Domain::kServer, [&] {
    for (int i = 0; i < 1000; ++i) a->send(2, {static_cast<uint8_t>(i)});
    p.sleep_for(millis(10));
    Datagram d;
    while (b->try_recv(d)) ++delivered;
  });
  p.run();
  EXPECT_EQ(net.packets_sent(), 1000u);
  EXPECT_NEAR(static_cast<double>(net.packets_dropped()), 250.0, 60.0);
  EXPECT_EQ(delivered, 1000 - static_cast<int>(net.packets_dropped()));
}

TEST(VirtualUdp, JitterCanReorderButQueueStaysTimeOrdered) {
  vt::SimPlatform p;
  auto cfg = lossless();
  cfg.latency = millis(5);
  cfg.jitter = millis(3);
  cfg.seed = 4;
  VirtualNetwork net(p, cfg);
  auto a = net.open(1);
  auto b = net.open(2);
  std::vector<TimePoint> arrival;
  p.spawn("t", Domain::kServer, [&] {
    for (uint8_t i = 0; i < 50; ++i) a->send(2, {i});
    Datagram d;
    for (int i = 0; i < 50; ++i) {
      p.sleep_for(micros(100));
      while (b->try_recv(d)) arrival.push_back(d.deliver_at);
      if (arrival.size() == 50) break;
    }
    p.sleep_for(millis(20));
    while (b->try_recv(d)) arrival.push_back(d.deliver_at);
  });
  p.run();
  ASSERT_EQ(arrival.size(), 50u);
  for (size_t i = 1; i < arrival.size(); ++i)
    EXPECT_GE(arrival[i].ns, arrival[i - 1].ns);
}

TEST(VirtualUdp, DeterministicWithSameSeed) {
  auto fingerprint = [] {
    vt::SimPlatform p;
    auto cfg = VirtualNetwork::Config{};
    cfg.jitter = micros(300);
    cfg.loss = 0.1f;
    cfg.seed = 77;
    VirtualNetwork net(p, cfg);
    auto a = net.open(1);
    auto b = net.open(2);
    uint64_t fp = 0;  // unsigned: the fingerprint wraps by design
    p.spawn("t", Domain::kServer, [&] {
      for (uint8_t i = 0; i < 100; ++i) a->send(2, {i});
      p.sleep_for(millis(50));
      Datagram d;
      while (b->try_recv(d))
        fp = fp * 31 + static_cast<uint64_t>(d.deliver_at.ns) + d.payload[0];
    });
    p.run();
    return fp;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(NetChannel, FramesAndSequences) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto a = net.open(1);
  auto b = net.open(2);
  p.spawn("t", Domain::kServer, [&] {
    NetChannel ca(*a, 2);
    NetChannel cb(*b, 1);
    ca.send({10, 20});
    ca.send({30});
    p.sleep_for(millis(5));
    Datagram d;
    NetChannel::Incoming info;
    ByteReader body(nullptr, 0);
    ASSERT_TRUE(b->try_recv(d));
    ASSERT_TRUE(cb.accept(d, info, body));
    EXPECT_EQ(info.sequence, 1u);
    EXPECT_FALSE(info.duplicate_or_old);
    EXPECT_EQ(body.remaining(), 2u);
    EXPECT_EQ(body.u8(), 10);
    ASSERT_TRUE(b->try_recv(d));
    ASSERT_TRUE(cb.accept(d, info, body));
    EXPECT_EQ(info.sequence, 2u);
    EXPECT_EQ(cb.packets_accepted(), 2u);
  });
  p.run();
}

TEST(NetChannel, DetectsDropsAndDuplicates) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto a = net.open(1);
  auto b = net.open(2);
  p.spawn("t", Domain::kServer, [&] {
    NetChannel cb(*b, 1);
    // Hand-craft packets: seq 1, then seq 4 (2 dropped), then seq 4 again.
    auto mk = [](uint32_t seq) {
      ByteWriter w;
      w.u32(seq);
      w.u32(0);
      w.u8(7);
      return w.take();
    };
    a->send(2, mk(1));
    a->send(2, mk(4));
    a->send(2, mk(4));
    p.sleep_for(millis(5));
    Datagram d;
    NetChannel::Incoming info;
    ByteReader body(nullptr, 0);
    ASSERT_TRUE(b->try_recv(d));
    ASSERT_TRUE(cb.accept(d, info, body));
    EXPECT_EQ(info.dropped_before, 0u);
    ASSERT_TRUE(b->try_recv(d));
    ASSERT_TRUE(cb.accept(d, info, body));
    EXPECT_EQ(info.dropped_before, 2u);
    EXPECT_FALSE(info.duplicate_or_old);
    ASSERT_TRUE(b->try_recv(d));
    ASSERT_TRUE(cb.accept(d, info, body));
    EXPECT_TRUE(info.duplicate_or_old);
    EXPECT_EQ(cb.drops_detected(), 2u);
    EXPECT_EQ(cb.duplicates_rejected(), 1u);
  });
  p.run();
}

TEST(NetChannel, RejectsRuntPackets) {
  vt::SimPlatform p;
  VirtualNetwork net(p, lossless());
  auto b = net.open(2);
  NetChannel cb(*b, 1);
  Datagram d;
  d.payload = {1, 2, 3};  // shorter than the header
  NetChannel::Incoming info;
  ByteReader body(nullptr, 0);
  EXPECT_FALSE(cb.accept(d, info, body));
}

}  // namespace
}  // namespace qserv::net
