// Virtual UDP: an in-process datagram network with modelled latency,
// jitter and loss, plus a select(2) emulation. The paper's testbed put
// the server and the client machines on a dedicated 100 Mbit Ethernet
// segment; this module substitutes for that segment. It is the virtual
// implementation of the transport seam (transport.hpp); real kernel
// sockets live in real_udp.hpp.
//
// Delivery model: send() timestamps the datagram with
// `deliver_at = now + latency + jitter` and inserts it into the
// destination socket's queue, which is ordered by delivery time. A
// datagram becomes visible to recv only once `now >= deliver_at` — so on
// the simulated platform in-flight time is virtual, and on the real
// platform it is wall-clock, with no extra threads or timers either way.
//
// Thread safety: sockets and selectors use platform mutexes, so the module
// works identically under SimPlatform (where it is also deterministic:
// jitter and loss draw from a seeded RNG) and RealPlatform.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/net/fault_scheduler.hpp"
#include "src/net/transport.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::net {

class VirtualSocket;
class VirtualSelector;

// The notification half of a Selector, shared (via shared_ptr) with every
// socket it watches. A delivering thread copies the shared_ptr under the
// socket lock and broadcasts after releasing it, so the mutex/condvar stay
// alive even if the selector — or the whole engine that owns it — is torn
// down concurrently (a supervised shard restore destroys a live engine
// while peers are still sending to its ports).
struct SelectorCore {
  std::unique_ptr<vt::Mutex> mu;
  std::unique_ptr<vt::CondVar> cv;
  bool poked = false;  // guarded by mu
};

class VirtualNetwork final : public Transport {
 public:
  struct Config {
    vt::Duration latency = vt::micros(500);  // one-way, LAN-like
    vt::Duration jitter = vt::micros(100);   // stddev around latency
    float loss = 0.0f;                       // drop probability per packet
    // Per-socket receive queue capacity, like a kernel UDP buffer:
    // datagrams arriving at a full socket are dropped. This is what
    // bounds a saturated server's request backlog.
    size_t socket_buffer = 128;
    uint64_t seed = 1;
    // When set, loss and jitter draws come from a stateless hash of
    // (seed, src, dst, per-flow packet counter) instead of the shared
    // network RNG. Traffic on one flow then cannot perturb the draws
    // another flow sees — required for cross-run digest comparisons on a
    // multi-shard network, where one shard's extra packets must not
    // change its neighbors' delivery pattern.
    bool deterministic_flows = false;
  };

  VirtualNetwork(vt::Platform& platform, Config cfg);
  ~VirtualNetwork() override;

  // Opens a socket bound to `port`; null + kPortInUse if it is taken.
  std::unique_ptr<Socket> try_open(uint16_t port,
                                   OpenError* err = nullptr) override;
  std::unique_ptr<Selector> make_selector() override;

  vt::Platform& platform() override { return platform_; }

  // The fault-injection timeline (created on first use). route() consults
  // it for every packet, so scheduled episodes mutate the delivery model
  // over simulated time. Schedule episodes before the run starts or from
  // platform callbacks; see fault_scheduler.hpp for the taxonomy.
  FaultScheduler& faults();
  // Read-only view for reporting/metrics; null until faults() is called.
  const FaultScheduler* faults_or_null() const override {
    return faults_.get();
  }

  // Global counters (racy reads are fine for reporting).
  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t packets_overflowed() const { return packets_overflow_; }
  uint64_t packets_to_closed_ports() const { return packets_dead_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  TransportCounters counters() const override {
    TransportCounters c;
    c.packets_sent = packets_sent_;
    c.packets_dropped = packets_dropped_;
    c.packets_overflowed = packets_overflow_;
    c.packets_to_closed_ports = packets_dead_;
    c.bytes_sent = bytes_sent_;
    return c;
  }

 private:
  friend class VirtualSocket;

  // Routes one datagram; called by VirtualSocket::send with no locks held.
  bool route(uint16_t src, uint16_t dst, std::vector<uint8_t> payload);
  void unregister(uint16_t port);

  vt::Platform& platform_;
  Config cfg_;
  std::unique_ptr<vt::Mutex> mu_;  // guards ports_ map, rng_, counters
  std::map<uint16_t, VirtualSocket*> ports_;
  std::unique_ptr<FaultScheduler> faults_;  // null until faults() is called
  Rng rng_;
  // Per-(src,dst) packet counters for deterministic_flows (guarded by mu_).
  std::map<uint32_t, uint64_t> flow_counters_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  std::atomic<uint64_t> packets_overflow_{0};
  uint64_t packets_dead_ = 0;
  uint64_t bytes_sent_ = 0;
};

class VirtualSocket final : public Socket {
 public:
  ~VirtualSocket() override;

  uint16_t port() const override { return port_; }

  // Sends `payload` to `dst`. Returns false if the packet was dropped by
  // the loss model or the destination port is closed (like UDP, the
  // sender normally cannot tell; the return value exists for tests).
  bool send(uint16_t dst, std::vector<uint8_t> payload) override;

  // Non-blocking receive of the next ready datagram (deliver_at <= now).
  bool try_recv(Datagram& out) override;

  // Earliest delivery time among queued datagrams; TimePoint::max() if
  // none. "Ready" means next_ready() <= now.
  vt::TimePoint next_ready() const override;
  bool has_ready() const override;

  // Number of datagrams queued (ready or in flight).
  size_t queued() const override;

  uint64_t received_count() const override { return received_; }

  // send() returning false means loss-model drop or closed port; receive
  // buffer overflow at the destination is invisible to the sender (see
  // VirtualNetwork::packets_overflowed()).

 private:
  friend class VirtualNetwork;
  friend class VirtualSelector;

  VirtualSocket(VirtualNetwork& net, uint16_t port);

  void deliver(Datagram d);  // called by the network's route()

  VirtualNetwork& net_;
  uint16_t port_;
  std::unique_ptr<vt::Mutex> mu_;
  // Ordered by (deliver_at, arrival sequence) so jitter can reorder
  // packets exactly as a real network would.
  std::multimap<std::pair<int64_t, uint64_t>, Datagram> queue_;
  uint64_t arrival_seq_ = 0;
  uint64_t received_ = 0;
  VirtualSelector* selector_ = nullptr;  // at most one watcher (bookkeeping)
  // Kept alongside selector_ (both guarded by mu_): deliver() notifies
  // through this so the wakeup survives concurrent selector teardown.
  std::shared_ptr<SelectorCore> notify_;
};

// select(2) emulation over a fixed set of virtual sockets. One selector
// per waiting thread; a socket belongs to at most one selector.
class VirtualSelector final : public Selector {
 public:
  explicit VirtualSelector(vt::Platform& platform);
  ~VirtualSelector() override;

  void add(Socket& s) override;
  void remove(Socket& s) override;
  bool wait_until(vt::TimePoint deadline) override;
  void poke() override;

 private:
  friend class VirtualSocket;

  vt::Platform& platform_;
  std::shared_ptr<SelectorCore> core_;
  std::vector<VirtualSocket*> sockets_;
};

}  // namespace qserv::net
