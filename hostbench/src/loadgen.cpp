#include "loadgen.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/net/protocol.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"

namespace hostbench {

namespace net = qserv::net;
namespace vt = qserv::vt;

namespace {

constexpr uint16_t kFrameMsec = 33;
constexpr size_t kBaselinesKept = 16;  // as bots::Client keeps

// An epoll descriptor over a set of client sockets, each tagged with its
// client index.
class Poller {
 public:
  Poller() : ep_(epoll_create1(EPOLL_CLOEXEC)) {
    QSERV_CHECK_MSG(ep_ >= 0, "epoll_create1 failed");
  }
  ~Poller() { close(ep_); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, uint32_t client) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = client;
    QSERV_CHECK(epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0);
  }

  // Waits up to timeout_ms (0 = poll) and returns the ready clients.
  const std::vector<uint32_t>& wait(int timeout_ms) {
    ready_.clear();
    epoll_event evs[64];
    const int n = epoll_wait(ep_, evs, 64, timeout_ms);
    for (int k = 0; k < n; ++k) ready_.push_back(evs[k].data.u32);
    return ready_;
  }

 private:
  int ep_ = -1;
  std::vector<uint32_t> ready_;
};

}  // namespace

ClientFarm::ClientFarm(net::RealUdpTransport& net,
                       const qserv::spatial::GameMap& map, FarmConfig cfg)
    : cfg_(std::move(cfg)), clients_(static_cast<size_t>(cfg_.clients)) {
  for (int i = 0; i < cfg_.clients; ++i) {
    Client& c = clients_[static_cast<size_t>(i)];
    c.sock = net.open(static_cast<uint16_t>(cfg_.first_port + i));
    c.chan = std::make_unique<net::NetChannel>(
        *c.sock, cfg_.join_ports[static_cast<size_t>(i)]);
    qserv::bots::Bot::Config bc;
    bc.seed = qserv::derive_seed(cfg_.seed, 1000 + static_cast<uint64_t>(i));
    c.bot = std::make_unique<qserv::bots::Bot>(map, bc);
  }
  // The transport keeps descriptors private; the farm polls them itself
  // (one epoll per generator thread) and reads through the sockets.
  for (const auto& [port, fd] : net.bound_fds()) {
    const int i = static_cast<int>(port) - static_cast<int>(cfg_.first_port);
    if (i >= 0 && i < cfg_.clients) clients_[static_cast<size_t>(i)].fd = fd;
  }
}

bool ClientFarm::connect_all(int64_t deadline_ns) {
  Poller poller;
  for (int i = 0; i < cfg_.clients; ++i)
    poller.add(clients_[static_cast<size_t>(i)].fd, static_cast<uint32_t>(i));
  int waiting = cfg_.clients;
  int64_t next_send = 0;
  while (waiting > 0 && mono_ns() < deadline_ns) {
    if (mono_ns() >= next_send) {
      for (int i = 0; i < cfg_.clients; ++i) {
        Client& c = clients_[static_cast<size_t>(i)];
        if (!c.connected)
          c.chan->send(net::encode(net::ConnectMsg{"hb-" + std::to_string(i)}));
      }
      next_send = mono_ns() + 250'000'000;
    }
    for (const uint32_t i : poller.wait(10)) {
      Client& c = clients_[i];
      net::Datagram d;
      while (c.sock->try_recv(d)) {
        net::NetChannel::Incoming info;
        net::ByteReader body(nullptr, 0);
        net::ServerMsgType type;
        net::ConnectAck ack;
        if (!c.chan->accept(d, info, body) ||
            !net::decode_server_type(body, type))
          continue;
        if (type == net::ServerMsgType::kReject) return false;
        if (type != net::ServerMsgType::kConnectAck || c.connected ||
            !net::decode(body, ack))
          continue;
        c.connected = true;
        c.player_id = ack.player_id;
        c.last.origin = ack.spawn_origin;
        if (ack.assigned_port != 0) c.chan->set_remote(ack.assigned_port);
        --waiting;
      }
    }
  }
  return waiting == 0;
}

FarmResult ClientFarm::run(int64_t t0, int64_t window_start, int64_t window_end,
                           int64_t drain_end) {
  const Window w{window_start, window_end, drain_end, cfg_.slice_ns};
  FarmResult out;
  const auto slices = static_cast<size_t>(
      (window_end - window_start + cfg_.slice_ns - 1) / cfg_.slice_ns);
  out.latency_by_slice.resize(slices);
  out.replies_by_slice.resize(slices);
  // Clients in due order within a tick.
  std::vector<int> order(static_cast<size_t>(cfg_.clients));
  for (int i = 0; i < cfg_.clients; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return cfg_.phase_ns[static_cast<size_t>(a)] <
           cfg_.phase_ns[static_cast<size_t>(b)];
  });
  Poller poller;
  for (const int i : order)
    poller.add(clients_[static_cast<size_t>(i)].fd, static_cast<uint32_t>(i));

  size_t next = 0;
  int64_t tick_base = t0;
  auto due_of = [&] {
    return tick_base + cfg_.phase_ns[static_cast<size_t>(order[next])];
  };
  // The generator busy-polls instead of sleeping: clients stand in for
  // remote machines, and a reply sent to a sleeping local thread would
  // charge the server's sendto(2) for the cross-CPU wakeup, which costs
  // several times a whole reply on a virtualized host.
  while (mono_ns() < w.drain_end) {
    // Send everything that is due; the schedule never waits for replies.
    while (due_of() < w.end && due_of() <= mono_ns()) {
      send_move(order[next], due_of(), w, out);
      if (++next == order.size()) {
        next = 0;
        tick_base += cfg_.tick_ns;
      }
    }
    for (const uint32_t i : poller.wait(0))
      read_replies(static_cast<int>(i), w, out);
  }
  return out;
}

void ClientFarm::send_move(int i, int64_t due, const Window& w,
                           FarmResult& out) {
  Client& c = clients_[static_cast<size_t>(i)];
  net::MoveCmd cmd =
      c.bot->think(c.last, c.player_id, vt::TimePoint{due}, kFrameMsec);
  cmd.baseline_frame = c.latest_frame;
  if (cfg_.ledger != nullptr)
    cfg_.ledger->on_sent(i, c.chan->out_sequence() + 1, due, mono_ns());
  c.chan->send(net::encode(cmd));
  c.last_sent = cmd.sequence;
  const int slice = w.slice(due);
  if (slice >= 0) ++out.moves;
  c.pending.push_back({cmd.sequence, due, slice});
}

void ClientFarm::read_replies(int i, const Window& w, FarmResult& out) {
  Client& c = clients_[static_cast<size_t>(i)];
  net::Datagram d;
  while (c.sock->try_recv(d)) {
    const int64_t t = mono_ns();
    const int slice = w.slice(t);
    net::NetChannel::Incoming info;
    net::ByteReader body(nullptr, 0);
    net::ServerMsgType type;
    if (!c.chan->accept(d, info, body) || info.duplicate_or_old ||
        !net::decode_server_type(body, type)) {
      ++out.bad_replies;
      continue;
    }
    if (type == net::ServerMsgType::kConnectAck) continue;  // a retried connect
    net::Snapshot snap;
    bool decoded = false;
    if (type == net::ServerMsgType::kSnapshot) {
      decoded = net::decode(body, snap);
    } else if (type == net::ServerMsgType::kDeltaSnapshot) {
      decoded = net::decode_delta(
          body,
          [&c](uint32_t frame) -> const std::vector<net::EntityUpdate>* {
            const auto it = c.reconstructed.find(frame);
            return it == c.reconstructed.end() ? nullptr : &it->second;
          },
          snap);
    }
    const int64_t decoded_at = mono_ns();
    // A reply acknowledges the newest move the server processed: never an
    // unsent one, never one older than the last acknowledgement, and it
    // echoes exactly the timestamp that move carried.
    const uint32_t ack = snap.ack_sequence;
    if (!decoded || ack < c.last_ack || ack > c.last_sent ||
        !std::isfinite(snap.origin.x) || !std::isfinite(snap.origin.y) ||
        !std::isfinite(snap.origin.z)) {
      ++out.bad_replies;
      continue;
    }
    while (!c.pending.empty() && c.pending.front().move_seq <= ack) {
      const Pending p = c.pending.front();
      c.pending.pop_front();
      if (p.move_seq == ack && snap.client_time_echo_ns != p.due)
        ++out.bad_replies;
      if (p.slice >= 0) {
        ++out.answered;
        out.latency_by_slice[static_cast<size_t>(p.slice)].push_back(t - p.due);
      }
    }
    c.last_ack = ack;

    if (slice >= 0) {
      ++out.replies;
      ++out.replies_by_slice[static_cast<size_t>(slice)];
      out.entities += snap.entities.size();
      out.reply_bytes += d.payload.size();
      out.decode_ns += decoded_at - t;
      MoveLedger::Stamps s;
      if (cfg_.ledger != nullptr && cfg_.ledger->read(i, info.acked, s) &&
          s.sent <= s.dequeued && s.dequeued <= s.replied && s.replied <= t) {
        out.lateness_ns.push_back(s.sent - s.due);
        out.queue_ns.push_back(s.dequeued - s.sent);
        out.server_ns.push_back(s.replied - s.dequeued);
        out.return_ns.push_back(t - s.replied);
      }
    }

    c.reconstructed[snap.server_frame] = snap.entities;
    while (c.reconstructed.size() > kBaselinesKept)
      c.reconstructed.erase(c.reconstructed.begin());
    c.latest_frame = std::max(c.latest_frame, snap.server_frame);
    if (snap.assigned_port != 0 && snap.assigned_port != c.chan->remote())
      c.chan->set_remote(snap.assigned_port);
    c.last = std::move(snap);
  }
}

}  // namespace hostbench
