// Event-log equivalence (DESIGN.md §15.3): the server fans a frame's
// events out through one frame-indexed log and per-client "complete
// through" frames instead of the paper's per-client reply buffers. Here a
// per-client-buffer oracle, fed each frame's events, predicts every reply's
// event list, and the replies the server actually sends (captured at its
// sockets) must match it exactly, through explosions, frags, pickups,
// client churn, timeout reaping, region reassignment and stall migration.
// Every client migrated to a new owner must be answered with its new port
// even though its moves still go to the old one, and the registry's
// per-owner client counts must equal a slot scan after every frame.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "src/bots/client_driver.hpp"
#include "src/core/global_state.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/net/protocol.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"
#include "tests/reply_oracle.hpp"

namespace qserv {
namespace {

// A snapshot the server sent, as decoded off the wire.
struct SentReply {
  uint16_t port = 0;
  uint32_t frame = 0;
  uint16_t assigned_port = 0;
  std::vector<net::GameEvent> events;
};

// Server-side transport decorator: every datagram the server sends is
// recorded if it is a (full) snapshot. Reply threads send concurrently on
// real threads, hence the lock; the master window reads `sent` after the
// frame's replies, past the frame barrier.
class TapTransport final : public net::Transport {
 public:
  explicit TapTransport(net::Transport& inner) : inner_(inner) {}

  std::unique_ptr<net::Socket> try_open(uint16_t port,
                                        net::OpenError* err) override {
    auto s = inner_.try_open(port, err);
    if (s == nullptr) return nullptr;
    return std::make_unique<TapSocket>(*this, std::move(s));
  }
  std::unique_ptr<net::Selector> make_selector() override {
    return std::make_unique<TapSelector>(inner_.make_selector());
  }
  vt::Platform& platform() override { return inner_.platform(); }
  const net::FaultScheduler* faults_or_null() const override {
    return inner_.faults_or_null();
  }
  net::TransportCounters counters() const override {
    return inner_.counters();
  }

  std::mutex mu;
  std::vector<SentReply> sent;  // guarded by mu

 private:
  class TapSocket final : public net::Socket {
   public:
    TapSocket(TapTransport& tap, std::unique_ptr<net::Socket> inner)
        : tap_(tap), inner_(std::move(inner)) {}
    net::Socket& inner() { return *inner_; }
    uint16_t port() const override { return inner_->port(); }
    bool send(uint16_t dst, std::vector<uint8_t> payload) override {
      tap_.record(dst, payload.data(), payload.size());
      return inner_->send(dst, std::move(payload));
    }
    bool send_span(uint16_t dst, const uint8_t* data, size_t len) override {
      tap_.record(dst, data, len);
      return inner_->send_span(dst, data, len);
    }
    bool try_recv(net::Datagram& out) override {
      return inner_->try_recv(out);
    }
    vt::TimePoint next_ready() const override {
      return inner_->next_ready();
    }
    bool has_ready() const override { return inner_->has_ready(); }
    size_t queued() const override { return inner_->queued(); }
    uint64_t received_count() const override {
      return inner_->received_count();
    }

   private:
    TapTransport& tap_;
    std::unique_ptr<net::Socket> inner_;
  };

  class TapSelector final : public net::Selector {
   public:
    explicit TapSelector(std::unique_ptr<net::Selector> inner)
        : inner_(std::move(inner)) {}
    void add(net::Socket& s) override {
      inner_->add(static_cast<TapSocket&>(s).inner());
    }
    void remove(net::Socket& s) override {
      inner_->remove(static_cast<TapSocket&>(s).inner());
    }
    bool wait_until(vt::TimePoint deadline) override {
      return inner_->wait_until(deadline);
    }
    void poke() override { inner_->poke(); }

   private:
    std::unique_ptr<net::Selector> inner_;
  };

  void record(uint16_t dst, const uint8_t* data, size_t len) {
    if (len <= net::NetChannel::kHeaderReserve) return;
    net::ByteReader body(data + net::NetChannel::kHeaderReserve,
                         len - net::NetChannel::kHeaderReserve);
    net::ServerMsgType type{};
    net::Snapshot snap;
    if (!net::decode_server_type(body, type) ||
        type != net::ServerMsgType::kSnapshot || !net::decode(body, snap))
      return;
    std::lock_guard<std::mutex> g(mu);
    sent.push_back({dst, snap.server_frame, snap.assigned_port,
                    std::move(snap.events)});
  }

  net::Transport& inner_;
};

bool same_events(const std::vector<net::GameEvent>& a,
                 const std::vector<net::GameEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].a != b[i].a || a[i].b != b[i].b ||
        !(a[i].pos == b[i].pos))
      return false;
  }
  return true;
}

// The paper's §3.3 reply buffers, one per client: a frame's events are
// appended to the buffer of every client not answered that frame, and an
// answered client receives its buffer followed by the frame's events.
// Runs at the end of the master window, after the frame's replies were
// sent and every lifecycle change of the frame was applied. Joins, leaves
// and migrations are read off the registry's slots, diffed against the
// previous frame's: a migration (the frame-start region reassignment
// among them) is noted before the frame's replies are checked, joins and
// leaves after.
class BufferOracle final : public core::FrameHook {
 public:
  BufferOracle(core::Server& server, TapTransport& tap)
      : server_(server), tap_(tap) {}

  void on_frame_end(vt::TimePoint, int, core::ThreadStats&) override {
    const uint64_t frame = server_.frames();
    const std::vector<net::GameEvent> frame_events =
        net::decode_span(server_.global_events().events_after(frame - 1));
    for (const auto& e : frame_events) ++kinds[e.kind];

    // Spawned sessions by port. A port whose entity changed left and
    // rejoined since the last frame; one whose owner changed migrated and
    // must be told its new server port.
    std::map<uint16_t, Session> now;
    for (const core::ClientSlot& c : server_.registry().slots())
      if (c.in_use && !c.pending_spawn)
        now[c.remote_port] = {c.entity_id, c.owner_thread};
    for (const auto& [port, is] : now) {
      const auto was = sessions_.find(port);
      if (was == sessions_.end() || was->second.entity != is.entity ||
          was->second.owner == is.owner)
        continue;
      ++migrations;
      const auto [n, fresh] = notify_.try_emplace(port);
      if (!fresh) ++superseded;
      n->second = {
          static_cast<uint16_t>(server_.config().base_port + is.owner),
          frame};
    }

    std::lock_guard<std::mutex> g(tap_.mu);
    std::set<uint16_t> answered;
    for (const SentReply& r : tap_.sent) {
      ++replies;
      if (r.frame != frame) ++wrong_frame;
      const auto it = buffers_.find(r.port);
      if (it == buffers_.end()) {
        ++unknown_port;
        continue;
      }
      std::vector<net::GameEvent> expected = std::move(it->second);
      it->second.clear();
      expected.insert(expected.end(), frame_events.begin(),
                      frame_events.end());
      events_checked += expected.size();
      if (!same_events(expected, r.events)) ++mismatches;
      if (!answered.insert(r.port).second) ++double_replies;
      const auto n = notify_.find(r.port);
      if (r.assigned_port != 0 && n != notify_.end() &&
          n->second.port == r.assigned_port) {
        ++notified;
        notify_.erase(n);
      }
    }
    tap_.sent.clear();
    for (auto& [port, buffer] : buffers_) {
      if (answered.count(port) == 0)
        buffer.insert(buffer.end(), frame_events.begin(), frame_events.end());
    }
    for (const auto& [port, was] : sessions_) {
      const auto is = now.find(port);
      if (is != now.end() && is->second.entity == was.entity) continue;
      buffers_.erase(port);
      notify_.erase(port);
    }
    for (const auto& [port, is] : now) {
      const auto was = sessions_.find(port);
      if (was == sessions_.end() || was->second.entity != is.entity)
        buffers_[port].clear();
    }
    sessions_ = std::move(now);

    // Migrated clients are told their new port promptly, without having
    // sent a request the new owner could see.
    for (const auto& [port, n] : notify_)
      if (frame - n.frame > 300) ++stale_notifies;

    check_counts();
    ++frames;
  }

  uint64_t frames = 0, replies = 0, events_checked = 0, mismatches = 0;
  uint64_t wrong_frame = 0, unknown_port = 0, double_replies = 0;
  uint64_t migrations = 0, superseded = 0, notified = 0, stale_notifies = 0;
  uint64_t count_mismatches = 0;
  std::map<uint8_t, uint64_t> kinds;

 private:
  struct Session {
    uint32_t entity = 0;
    int owner = 0;
  };

  // The registry keeps active clients per owner thread; a scan of the
  // slots must agree.
  void check_counts() {
    const core::ClientRegistry& reg = server_.registry();
    for (int t = 0; t < server_.config().threads; ++t) {
      int scanned = 0;
      for (const core::ClientSlot& c : reg.slots())
        scanned += c.in_use && !c.pending_spawn && !c.pending_disconnect &&
                   c.owner_thread == t;
      if (scanned != reg.active_clients(1ull << t)) ++count_mismatches;
    }
  }

  struct Notify {
    uint16_t port = 0;
    uint64_t frame = 0;
  };
  core::Server& server_;
  TapTransport& tap_;
  std::map<uint16_t, std::vector<net::GameEvent>> buffers_;
  std::map<uint16_t, Notify> notify_;
  std::map<uint16_t, Session> sessions_;
};

void expect_equivalent(const BufferOracle& o) {
  EXPECT_GT(o.frames, 500u);
  EXPECT_GT(o.replies, 2000u);
  EXPECT_EQ(o.mismatches, 0u);
  EXPECT_EQ(o.wrong_frame, 0u);
  EXPECT_EQ(o.unknown_port, 0u);
  EXPECT_EQ(o.double_replies, 0u);
  EXPECT_EQ(o.count_mismatches, 0u);
  // The game exercised every kind of event that fans out.
  EXPECT_GT(o.events_checked, 1000u);
  for (const sim::EventKind k :
       {sim::EventKind::kExplosion, sim::EventKind::kFrag,
        sim::EventKind::kPickup, sim::EventKind::kSpawn}) {
    const auto it = o.kinds.find(static_cast<uint8_t>(k));
    EXPECT_TRUE(it != o.kinds.end() && it->second > 0)
        << "no events of kind " << static_cast<int>(k);
  }
}

bots::ClientDriver::Config churning_bots() {
  bots::ClientDriver::Config dcfg;
  dcfg.players = 24;
  dcfg.aggression = 1.0f;
  dcfg.grenade_ratio = 0.5f;
  dcfg.churn.enabled = true;
  dcfg.churn.mean_session = vt::seconds(2);
  return dcfg;
}

// The log holds each sealed frame's events as wire records. A span read
// after any frame decodes to exactly the events emitted after it, in
// order, field for field — also after trims, which move every remaining
// frame's records to new byte offsets.
TEST(EventLog, SpansDecodeToEmittedEventsAcrossTrims) {
  vt::SimPlatform p;
  core::GlobalStateBuffer log(p);
  p.spawn("t", vt::Domain::kServer, [&] {
    Rng rng(21);
    std::vector<std::vector<net::GameEvent>> emitted(1);  // by frame
    const auto check_after = [&](uint64_t through) {
      std::vector<net::GameEvent> expected;
      for (size_t f = through + 1; f < emitted.size(); ++f)
        expected.insert(expected.end(), emitted[f].begin(), emitted[f].end());
      EXPECT_TRUE(same_events(net::decode_span(log.events_after(through)),
                              expected))
          << "through frame " << through;
    };
    const auto run_frames = [&](uint64_t last) {
      for (uint64_t frame = emitted.size(); frame <= last; ++frame) {
        emitted.emplace_back();
        const int n = frame % 4 == 0 ? 0 : 1 + static_cast<int>(frame % 5);
        for (int i = 0; i < n; ++i) {
          const net::GameEvent e{static_cast<uint8_t>(1 + rng.next_u32() % 9),
                                 rng.next_u32(), rng.next_u32(),
                                 rng.point_in({-500, -500, 0}, {500, 500, 90})};
          log.emit(e);
          emitted.back().push_back(e);
        }
        EXPECT_EQ(log.seal_frame(frame), static_cast<size_t>(n));
      }
    };
    run_frames(12);
    for (uint64_t through = 0; through <= 12; ++through) check_after(through);
    log.trim_through(5);
    for (uint64_t through = 5; through <= 12; ++through) check_after(through);
    run_frames(20);  // sealed after the trim, behind the shifted frames
    log.trim_through(9);
    for (uint64_t through = 9; through <= 20; ++through) check_after(through);
  });
  p.run();
}

TEST(EventLogEquivalence, SequentialGameMatchesPerClientBuffers) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  TapTransport tap(net);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.client_timeout = vt::seconds(1);  // reaps churn's crashed clients
  core::SequentialServer server(p, tap, map, scfg);
  BufferOracle oracle(server, tap);
  server.add_frame_hook(&oracle);
  bots::ClientDriver driver(p, net, map, server, churning_bots());
  server.start();
  driver.start();
  p.call_after(vt::seconds(8), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  expect_equivalent(oracle);
}

// Three workers with region reassignment every 300 ms, and worker 1
// wedged for 600 ms so the watchdog migrates its clients away: migrated
// clients keep addressing their old port, so only the notify-only reply
// from their new owner reaches them.
TEST(EventLogEquivalence, ParallelGameWithMigrationsMatchesPerClientBuffers) {
  vt::SimPlatform p;
  net::VirtualNetwork net(p, {});
  TapTransport tap(net);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 3;
  scfg.client_timeout = vt::seconds(1);
  scfg.assign_policy = core::AssignPolicy::kRegion;
  scfg.reassign_interval = vt::millis(300);
  scfg.resilience.watchdog_timeout = vt::millis(150);
  net.faults().add_thread_stall(p.now() + vt::seconds(3), vt::millis(600),
                                1);
  core::ParallelServer server(p, tap, map, scfg);
  BufferOracle oracle(server, tap);
  server.add_frame_hook(&oracle);
  bots::ClientDriver driver(p, net, map, server, churning_bots());
  server.start();
  driver.start();
  p.call_after(vt::seconds(8), [&] {
    server.request_stop();
    driver.request_stop();
  });
  p.run();
  expect_equivalent(oracle);
  EXPECT_GE(server.registry().counters.stall_reassignments, 1u);
  EXPECT_GT(server.registry().counters.reassignments, 0u);
  EXPECT_GT(oracle.migrations, 10u);
  EXPECT_GT(oracle.notified, 0u);
  EXPECT_EQ(oracle.stale_notifies, 0u);
}

// The same equivalence with request and reply processing on real OS
// threads: reply workers read the log concurrently (the TSan CI job runs
// this).
TEST(EventLogEquivalence, RealThreadsParallelGameMatchesPerClientBuffers) {
  vt::RealPlatform platform;
  net::VirtualNetwork net(platform, {});
  TapTransport tap(net);
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.lock_policy = core::LockPolicy::kOptimized;
  core::ParallelServer server(platform, tap, map, scfg);
  BufferOracle oracle(server, tap);
  server.add_frame_hook(&oracle);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 16;
  dcfg.frame_interval = vt::millis(10);
  dcfg.aggression = 1.0f;
  dcfg.grenade_ratio = 0.5f;
  bots::ClientDriver driver(platform, net, map, server, dcfg);
  server.start();
  driver.start();
  platform.call_after(vt::millis(1500), [&] {
    server.request_stop();
    driver.request_stop();
  });
  platform.join_all();
  EXPECT_GT(oracle.frames, 20u);
  EXPECT_GT(oracle.replies, 100u);
  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_EQ(oracle.unknown_port, 0u);
  EXPECT_EQ(oracle.double_replies, 0u);
  EXPECT_EQ(oracle.count_mismatches, 0u);
}

}  // namespace
}  // namespace qserv
