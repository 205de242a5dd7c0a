// Adversarial input tests: the wire-protocol decoders and the netchan
// framing must never crash, loop, or read out of bounds on arbitrary
// bytes — a public game server parses whatever the internet sends it.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/netchan.hpp"
#include "src/net/protocol.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/sim_platform.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::net {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

std::vector<uint8_t> random_bytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.next_u32());
  return out;
}

TEST_P(FuzzSeeds, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    {
      ByteReader r(bytes);
      ClientMsgType t;
      if (decode_client_type(r, t)) {
        ConnectMsg c;
        MoveCmd m;
        switch (t) {
          case ClientMsgType::kConnect: (void)decode(r, c); break;
          case ClientMsgType::kMove: (void)decode(r, m); break;
          case ClientMsgType::kDisconnect: break;
        }
      }
    }
    {
      ByteReader r(bytes);
      ServerMsgType t;
      if (decode_server_type(r, t)) {
        ConnectAck a;
        Snapshot s;
        RejectMsg j;
        static const std::vector<EntityUpdate> kEmptyBaseline;
        switch (t) {
          case ServerMsgType::kConnectAck: (void)decode(r, a); break;
          case ServerMsgType::kSnapshot: (void)decode(r, s); break;
          case ServerMsgType::kDeltaSnapshot:
            (void)decode_delta(r, [](uint32_t) { return &kEmptyBaseline; }, s);
            break;
          case ServerMsgType::kReject: (void)decode(r, j); break;
        }
      }
    }
  }
}

TEST_P(FuzzSeeds, TruncatedValidMessagesAreRejectedNotCrashed) {
  Rng rng(GetParam());
  // Build a valid snapshot, then decode every prefix of it.
  Snapshot s;
  for (int i = 0; i < 20; ++i) {
    EntityUpdate e;
    e.id = rng.next_u32();
    e.origin = rng.point_in({-100, -100, -100}, {100, 100, 100});
    s.entities.push_back(e);
  }
  for (int i = 0; i < 5; ++i) s.events.push_back({1, 2, 3, {}});
  const auto bytes = encode(s);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    ServerMsgType t;
    if (!decode_server_type(r, t)) continue;
    Snapshot out;
    EXPECT_FALSE(decode(r, out)) << "prefix of length " << len
                                 << " decoded as complete";
  }
  // The full message decodes.
  ByteReader r(bytes);
  ServerMsgType t;
  ASSERT_TRUE(decode_server_type(r, t));
  Snapshot out;
  EXPECT_TRUE(decode(r, out));
  EXPECT_EQ(out.entities.size(), s.entities.size());
}

TEST_P(FuzzSeeds, CorruptedSnapshotsNeverDecodeOutOfBounds) {
  Rng rng(GetParam());
  Snapshot s;
  for (int i = 0; i < 8; ++i) s.entities.push_back({});
  auto bytes = encode(s);
  for (int trial = 0; trial < 500; ++trial) {
    auto corrupted = bytes;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.below(corrupted.size())] ^=
          static_cast<uint8_t>(1u << rng.below(8));
    }
    ByteReader r(corrupted);
    ServerMsgType t;
    if (!decode_server_type(r, t) || t != ServerMsgType::kSnapshot) continue;
    Snapshot out;
    (void)decode(r, out);  // must simply not crash / not hang
    EXPECT_LE(out.entities.size(), 4096u);
    EXPECT_LE(out.events.size(), 4096u);
  }
}

TEST_P(FuzzSeeds, DeltaDecoderSurvivesGarbageAndCorruption) {
  Rng rng(GetParam() * 1009 + 3);
  std::vector<EntityUpdate> baseline;
  for (uint32_t id = 1; id <= 12; ++id) {
    EntityUpdate e;
    e.id = id;
    baseline.push_back(e);
  }
  const BaselineLookup lookup =
      [&](uint32_t) -> const std::vector<EntityUpdate>* { return &baseline; };
  // Pure garbage.
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, 200);
    ByteReader r(bytes);
    Snapshot out;
    (void)decode_delta(r, lookup, out);
    EXPECT_LE(out.entities.size(), 8192u);
  }
  // Bit-flipped valid deltas.
  Snapshot now;
  now.entities = baseline;
  now.entities[3].origin = {9, 9, 9};
  now.entities.pop_back();
  auto valid = encode_delta(now, baseline, 7, nullptr);
  for (int i = 0; i < 300; ++i) {
    auto corrupted = valid;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<uint8_t>(1u << rng.below(8));
    ByteReader r(corrupted);
    ServerMsgType t;
    if (!decode_server_type(r, t) || t != ServerMsgType::kDeltaSnapshot)
      continue;
    Snapshot out;
    (void)decode_delta(r, lookup, out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4));

// --- hardened parse paths: length-lying, oversized, truncated inputs ---

// Writes the fixed snapshot header (everything before the entity count).
void write_snapshot_header(ByteWriter& w) {
  w.u8(static_cast<uint8_t>(ServerMsgType::kSnapshot));
  w.u32(7);        // server_frame
  w.u32(3);        // ack_sequence
  w.i64(0);        // client_time_echo_ns
  w.u16(0);        // assigned_port
  w.vec3({0, 0, 0});
  w.vec3({0, 0, 0});
  w.u16(100);      // health
  w.u16(0);        // armor
  w.u16(0);        // frags
}

// A header that claims thousands of entities backed by a few bytes must
// fail the count-vs-remaining-bytes check before any allocation happens —
// a lying length prefix costs the attacker bandwidth, not us memory.
TEST(ParseHardening, EntityCountLyingAboutPayloadIsRejectedWithoutAllocation) {
  ByteWriter w;
  write_snapshot_header(w);
  w.u16(4000);  // claimed entities; ~88 KB would be needed
  w.u32(1);     // ...but only 4 payload bytes follow
  const auto bytes = w.take();

  ByteReader r(bytes);
  ServerMsgType t;
  ASSERT_TRUE(decode_server_type(r, t));
  Snapshot out;
  EXPECT_FALSE(decode(r, out));
  EXPECT_TRUE(out.entities.empty());  // never resized toward the lie
}

TEST(ParseHardening, EventCountLyingAboutPayloadIsRejected) {
  ByteWriter w;
  write_snapshot_header(w);
  w.u16(0);     // entities: none (honest)
  w.u16(4000);  // events: a lie, no bytes behind it
  const auto bytes = w.take();

  ByteReader r(bytes);
  ServerMsgType t;
  ASSERT_TRUE(decode_server_type(r, t));
  Snapshot out;
  EXPECT_FALSE(decode(r, out));
  EXPECT_TRUE(out.events.empty());
}

TEST(ParseHardening, DeltaCountsLyingAboutPayloadAreRejected) {
  std::vector<EntityUpdate> baseline(4);
  for (uint32_t i = 0; i < 4; ++i) baseline[i].id = i + 1;
  const BaselineLookup lookup =
      [&](uint32_t) -> const std::vector<EntityUpdate>* { return &baseline; };

  for (const bool lie_in_removals : {true, false}) {
    ByteWriter w;
    w.u8(static_cast<uint8_t>(ServerMsgType::kDeltaSnapshot));
    w.u32(8);   // server_frame
    w.u32(3);   // ack_sequence
    w.i64(0);   // client_time_echo_ns
    w.u16(0);   // assigned_port
    w.u32(7);   // baseline_frame
    w.vec3({0, 0, 0});
    w.vec3({0, 0, 0});
    w.u16(100);
    w.u16(0);
    w.u16(0);
    if (lie_in_removals) {
      w.u16(60000);  // removals "count" with 2 bytes of backing
      w.u16(1);
    } else {
      w.u16(0);      // removals: none
      w.u16(60000);  // changed-entity count with 2 bytes of backing
      w.u16(1);
    }
    const auto bytes = w.take();
    ByteReader r(bytes);
    ServerMsgType t;
    ASSERT_TRUE(decode_server_type(r, t));
    Snapshot out;
    EXPECT_FALSE(decode_delta(r, lookup, out));
  }
}

// Oversized player names are refused at decode so a hostile connect can
// never park a 64 KB name in the client registry.
TEST(ParseHardening, OversizedConnectNameIsRejected) {
  {
    const auto ok = encode(ConnectMsg{std::string(kMaxPlayerNameLen, 'a')});
    ByteReader r(ok);
    ClientMsgType t;
    ASSERT_TRUE(decode_client_type(r, t));
    ConnectMsg m;
    EXPECT_TRUE(decode(r, m));
  }
  {
    const auto bad =
        encode(ConnectMsg{std::string(kMaxPlayerNameLen + 1, 'a')});
    ByteReader r(bad);
    ClientMsgType t;
    ASSERT_TRUE(decode_client_type(r, t));
    ConnectMsg m;
    EXPECT_FALSE(decode(r, m));
  }
}

// A move claiming an absurd timestep would have the server simulate a
// multi-second leap on the sender's behalf; the decoder refuses it.
TEST(ParseHardening, MoveWithLyingTimestepIsRejected) {
  MoveCmd cmd;
  cmd.msec = kMaxMoveMsec;
  {
    const auto ok = encode(cmd);
    ByteReader r(ok);
    ClientMsgType t;
    ASSERT_TRUE(decode_client_type(r, t));
    MoveCmd m;
    EXPECT_TRUE(decode(r, m));
  }
  cmd.msec = kMaxMoveMsec + 1;
  {
    const auto bad = encode(cmd);
    ByteReader r(bad);
    ClientMsgType t;
    ASSERT_TRUE(decode_client_type(r, t));
    MoveCmd m;
    EXPECT_FALSE(decode(r, m));
  }
}

// Every truncation of a valid move must fail cleanly (the snapshot
// counterpart is covered above; moves are what the server parses from
// the internet at the highest rate).
TEST(ParseHardening, TruncatedMovesAreRejectedNotCrashed) {
  MoveCmd cmd;
  cmd.sequence = 41;
  cmd.msec = 33;
  const auto bytes = encode(cmd);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    ClientMsgType t;
    if (!decode_client_type(r, t)) continue;
    MoveCmd m;
    EXPECT_FALSE(decode(r, m)) << "prefix of length " << len;
  }
  ByteReader r(bytes);
  ClientMsgType t;
  ASSERT_TRUE(decode_client_type(r, t));
  MoveCmd m;
  EXPECT_TRUE(decode(r, m));
  EXPECT_EQ(m.sequence, 41u);
}

TEST(ServerFuzz, GarbageDatagramsDoNotKillTheServer) {
  // Spray a live server port with junk while a real client plays.
  vt::SimPlatform p;
  VirtualNetwork net(p, {});
  auto attacker = net.open(9999);
  p.spawn("attacker", vt::Domain::kClientFarm, [&] {
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
      auto junk = random_bytes(rng, 64);
      attacker->send(27500, std::move(junk));
      p.sleep_for(vt::millis(2));
    }
  });
  // The attacked socket is drained by a minimal reader emulating the
  // server's receive path.
  auto server_sock = net.open(27500);
  int parsed = 0, rejected = 0;
  p.spawn("reader", vt::Domain::kServer, [&] {
    auto sel = net.make_selector();
    sel->add(*server_sock);
    NetChannel chan(*server_sock, 9999);
    while (p.now() < vt::TimePoint{} + vt::seconds(2)) {
      if (!sel->wait_until(p.now() + vt::millis(20))) continue;
      Datagram d;
      while (server_sock->try_recv(d)) {
        NetChannel::Incoming info;
        ByteReader body(nullptr, 0);
        if (!chan.accept(d, info, body)) {
          ++rejected;
          continue;
        }
        ClientMsgType t;
        if (decode_client_type(body, t)) ++parsed;
        else ++rejected;
      }
    }
  });
  p.run();
  EXPECT_EQ(parsed + rejected, 500);
  EXPECT_GT(rejected, 400);  // almost all junk must be rejected cleanly
}

}  // namespace
}  // namespace qserv::net
