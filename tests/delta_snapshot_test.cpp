// Delta-compressed snapshot tests: wire-level encode/decode laws, the
// server/client baseline negotiation, and loss robustness.
#include <gtest/gtest.h>

#include "src/net/virtual_udp.hpp"
#include "src/harness/experiment.hpp"
#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/net/protocol.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv::net {
namespace {

EntityUpdate ent(uint32_t id, Vec3 origin, float yaw = 0, uint8_t state = 1,
                 uint8_t type = 1) {
  EntityUpdate e;
  e.id = id;
  e.origin = origin;
  e.yaw_deg = yaw;
  e.state = state;
  e.type = type;
  return e;
}

BaselineLookup lookup_of(uint32_t frame,
                         const std::vector<EntityUpdate>& baseline) {
  return [frame, &baseline](uint32_t f) -> const std::vector<EntityUpdate>* {
    return f == frame ? &baseline : nullptr;
  };
}

bool entities_equal(const EntityUpdate& a, const EntityUpdate& b) {
  return a.id == b.id && a.origin == b.origin && a.yaw_deg == b.yaw_deg &&
         a.state == b.state && a.type == b.type;
}

// Law: decode_delta(encode_delta(now, base), base) == now (up to entity
// ordering, which the decoder normalizes by id).
TEST(DeltaSnapshot, RoundTripReconstructsExactly) {
  Rng rng(3);
  std::vector<EntityUpdate> baseline;
  for (uint32_t id = 1; id <= 30; ++id) {
    baseline.push_back(
        ent(id, rng.point_in({-100, -100, 0}, {100, 100, 50}),
            rng.uniform(0, 360)));
  }
  Snapshot now;
  now.server_frame = 100;
  now.ack_sequence = 55;
  now.health = 73;
  now.frags = 4;
  // Mixed change-set: some unchanged, some moved, some new, some gone.
  for (uint32_t id = 1; id <= 30; ++id) {
    if (id % 5 == 0) continue;  // removed
    EntityUpdate e = baseline[id - 1];
    if (id % 2 == 0) e.origin += Vec3{10, 0, 0};  // moved
    if (id % 3 == 0) e.state = 0;                 // state change
    now.entities.push_back(e);
  }
  now.entities.push_back(ent(99, {5, 5, 5}, 45, 1, 2));  // new
  now.events.push_back({3, 1, 2, {1, 2, 3}});

  int encoded = -1;
  const auto bytes = encode_delta(now, baseline, 90, &encoded);
  EXPECT_LT(encoded, static_cast<int>(now.entities.size()));  // some skipped

  ByteReader r(bytes);
  ServerMsgType type;
  ASSERT_TRUE(decode_server_type(r, type));
  ASSERT_EQ(type, ServerMsgType::kDeltaSnapshot);
  Snapshot out;
  ASSERT_TRUE(decode_delta(r, lookup_of(90, baseline), out));

  EXPECT_EQ(out.server_frame, 100u);
  EXPECT_EQ(out.ack_sequence, 55u);
  EXPECT_EQ(out.health, 73);
  EXPECT_EQ(out.frags, 4);
  EXPECT_EQ(out.baseline_frame, 90u);
  ASSERT_EQ(out.entities.size(), now.entities.size());
  // Decoder emits in id order; compare as sets keyed by id.
  auto sorted = now.entities;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_TRUE(entities_equal(out.entities[i], sorted[i]))
        << "entity " << sorted[i].id;
  }
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].kind, 3);
}

TEST(DeltaSnapshot, UnchangedWorldCostsAlmostNothing) {
  std::vector<EntityUpdate> baseline;
  for (uint32_t id = 1; id <= 100; ++id) baseline.push_back(ent(id, {1, 2, 3}));
  Snapshot now;
  now.entities = baseline;
  int encoded = -1;
  const auto delta_bytes = encode_delta(now, baseline, 7, &encoded);
  const auto full_bytes = encode(now);
  EXPECT_EQ(encoded, 0);
  EXPECT_LT(delta_bytes.size(), full_bytes.size() / 10);
}

TEST(DeltaSnapshot, MissingBaselineFailsCleanly) {
  std::vector<EntityUpdate> baseline{ent(1, {0, 0, 0})};
  Snapshot now;
  now.entities = baseline;
  const auto bytes = encode_delta(now, baseline, 42, nullptr);
  ByteReader r(bytes);
  ServerMsgType type;
  ASSERT_TRUE(decode_server_type(r, type));
  Snapshot out;
  EXPECT_FALSE(decode_delta(
      r, [](uint32_t) -> const std::vector<EntityUpdate>* { return nullptr; },
      out));
}

TEST(DeltaSnapshot, DeltaAgainstEmptyBaselineIsAFullEncoding) {
  Snapshot now;
  for (uint32_t id = 1; id <= 5; ++id) now.entities.push_back(ent(id, {1, 1, 1}));
  const std::vector<EntityUpdate> empty;
  int encoded = -1;
  const auto bytes = encode_delta(now, empty, 1, &encoded);
  EXPECT_EQ(encoded, 5);
  ByteReader r(bytes);
  ServerMsgType type;
  ASSERT_TRUE(decode_server_type(r, type));
  Snapshot out;
  ASSERT_TRUE(decode_delta(r, lookup_of(1, empty), out));
  EXPECT_EQ(out.entities.size(), 5u);
}

}  // namespace
}  // namespace qserv::net

namespace qserv {
namespace {

harness::ExperimentConfig delta_cfg(int players, bool delta) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 2, players,
                                   core::LockPolicy::kConservative);
  cfg.server.delta_snapshots = delta;
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(4);
  return cfg;
}

TEST(DeltaSnapshotE2E, GameWorksAndClientsDecodeDeltas) {
  const auto r = harness::run_experiment(delta_cfg(48, true));
  EXPECT_EQ(r.connected, 48);
  EXPECT_GT(r.replies, 3000u);
  EXPECT_GT(r.response_rate, 0.9 * 48 * 30.0);
}

TEST(DeltaSnapshotE2E, DeltasDominateOnceWarm) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.delta_snapshots = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(5), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  uint64_t full = 0, delta = 0, undecodable = 0;
  for (const auto& c : driver.clients()) {
    full += c->metrics().full_snapshots;
    delta += c->metrics().delta_snapshots;
    undecodable += c->metrics().undecodable_deltas;
  }
  EXPECT_GT(delta, full * 5);  // steady state is delta-encoded
  EXPECT_EQ(undecodable, 0u);  // lossless network: every delta decodes
}

TEST(DeltaSnapshotE2E, ReducesBytesOnTheWire) {
  auto measure_bytes = [](bool delta) {
    vt::SimPlatform p;
    net::VirtualNetwork net(p, {});
    const auto map = spatial::make_large_deathmatch(7);
    core::ServerConfig scfg;
    scfg.threads = 2;
    scfg.delta_snapshots = delta;
    core::ParallelServer server(p, net, map, scfg);
    bots::ClientDriver::Config dcfg;
    dcfg.players = 48;
    bots::ClientDriver driver(p, net, map, server, dcfg);
    server.start();
    driver.start();
    p.call_after(vt::seconds(4), [&] {
      server.request_stop();
      driver.request_stop();
    });
    p.run();
    return net.bytes_sent();
  };
  const uint64_t full = measure_bytes(false);
  const uint64_t delta = measure_bytes(true);
  EXPECT_LT(static_cast<double>(delta), static_cast<double>(full) * 0.75);
}

TEST(DeltaSnapshotE2E, SurvivesPacketLossViaFullFallback) {
  vt::SimPlatform p;
  net::VirtualNetwork::Config nc;
  nc.loss = 0.15f;
  nc.seed = 3;
  net::VirtualNetwork net(p, nc);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.delta_snapshots = true;
  core::ParallelServer server(p, net, map, scfg);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  bots::ClientDriver driver(p, net, map, server, dcfg);
  server.start();
  driver.start();
  p.call_after(vt::seconds(6), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  uint64_t replies = 0, undecodable = 0;
  for (const auto& c : driver.clients()) {
    replies += c->metrics().replies;
    undecodable += c->metrics().undecodable_deltas;
  }
  // The game keeps flowing under loss; lost baselines self-heal because
  // clients keep advertising their newest reconstructed frame.
  EXPECT_GT(replies, 2000u);
  // A lost snapshot whose successor referenced it produces at most a
  // brief stall, never a wedge (bounded undecodable count).
  EXPECT_LT(static_cast<double>(undecodable),
            static_cast<double>(replies) * 0.1);
}

}  // namespace
}  // namespace qserv
