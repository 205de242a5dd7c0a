// Open-loop client farm: N game clients, each with its own kernel UDP
// port, sending one bot-driven move per tick at a fixed phase whether or
// not earlier replies have arrived (independent players), all from one
// generator thread. Replies are read as soon as they land, so a move's
// latency is reply receipt minus the time the move was due — generator
// lateness and all queueing included, and no client-frame wait.
//
// Every reply is checked: it must decode (full, or delta against a
// baseline the client reconstructed), acknowledge a move this client
// sent, never go backwards, and echo that move's timestamp exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "metered.hpp"
#include "src/bots/bot.hpp"
#include "src/net/netchan.hpp"
#include "src/net/real_udp.hpp"
#include "src/spatial/map.hpp"

namespace hostbench {

struct FarmConfig {
  int clients = 0;
  uint16_t first_port = 0;
  std::vector<uint16_t> join_ports;  // per client: server port to connect to
  std::vector<int64_t> phase_ns;     // per client: offset within the tick
  int64_t tick_ns = 33'000'000;
  // The measurement window is cut into slices of this length; moves are
  // binned by due time and replies by arrival time.
  int64_t slice_ns = 1'000'000'000;
  uint64_t seed = 1;
  MoveLedger* ledger = nullptr;  // trace runs only
};

// What the farm saw, over moves due inside the measurement window.
struct FarmResult {
  uint64_t moves = 0;       // moves due (and sent) in the window
  uint64_t answered = 0;    // ... acknowledged by a reply
  uint64_t replies = 0;     // replies received inside the window
  uint64_t bad_replies = 0; // undecodable / inconsistent replies (any time)
  // Latency of each answered window move, binned by due time.
  std::vector<std::vector<int64_t>> latency_by_slice;
  std::vector<uint64_t> replies_by_slice;
  // Trace runs: per-move split of the latency (ns), one sample per reply
  // whose move carried every stamp.
  std::vector<int64_t> lateness_ns, queue_ns, server_ns, return_ns;
  uint64_t reply_bytes = 0;  // datagram bytes of window replies
  uint64_t entities = 0;     // entities carried by window replies
  int64_t decode_ns = 0;     // time decoding window replies
};

class ClientFarm {
 public:
  ClientFarm(qserv::net::RealUdpTransport& net,
             const qserv::spatial::GameMap& map, FarmConfig cfg);

  // Connects every client (retrying every 250 ms); false if any client
  // is still unacknowledged at `deadline_ns` or was rejected.
  bool connect_all(int64_t deadline_ns);

  // Runs the move schedule on the calling thread: ticks start at t0,
  // moves due in [window_start, window_end) are measured, sending stops
  // at window_end and replies are read until drain_end.
  FarmResult run(int64_t t0, int64_t window_start, int64_t window_end,
                 int64_t drain_end);

 private:
  struct Pending {
    uint32_t move_seq;
    int64_t due;
    int slice;  // -1 outside the window
  };
  struct Client {
    std::unique_ptr<qserv::net::Socket> sock;
    int fd = -1;
    std::unique_ptr<qserv::net::NetChannel> chan;
    std::unique_ptr<qserv::bots::Bot> bot;
    bool connected = false;
    uint32_t player_id = 0;
    qserv::net::Snapshot last;
    std::map<uint32_t, std::vector<qserv::net::EntityUpdate>> reconstructed;
    uint32_t latest_frame = 0;
    std::deque<Pending> pending;
    uint32_t last_ack = 0;
    uint32_t last_sent = 0;
  };
  struct Window {
    int64_t start, end, drain_end, slice_ns;
    // Slice of a time inside [start, end), else -1.
    int slice(int64_t t) const {
      return t >= start && t < end ? static_cast<int>((t - start) / slice_ns)
                                   : -1;
    }
  };

  void send_move(int i, int64_t due, const Window& w, FarmResult& out);
  void read_replies(int i, const Window& w, FarmResult& out);

  FarmConfig cfg_;
  std::vector<Client> clients_;
};

}  // namespace hostbench
