// Deterministic fault-injection timeline for the virtual network.
//
// A FaultScheduler holds a list of *episodes* — time-bounded network
// pathologies — and is consulted by VirtualNetwork::route() for every
// packet. Episodes mutate the delivery model over (virtual) time, which is
// what lets chaos tests exercise the failure modes a static loss/jitter
// config cannot: loss bursts, latency spikes, partitions between port
// ranges, and per-port blackholes. All randomness (the per-packet draw of
// a loss burst) comes from a seeded Rng, so a chaos run on the simulated
// platform is reproducible bit-for-bit.
//
// Thread safety: apply() is called by the owning VirtualNetwork under its
// own mutex. add_*() must not race with traffic — schedule episodes before
// the run starts or from platform callbacks (which the simulated platform
// serializes with all other execution).
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"
#include "src/vthread/time.hpp"

namespace qserv::net {

// One scheduled network pathology, active while start <= now < end.
struct FaultEpisode {
  enum class Kind : uint8_t {
    kLossBurst,     // drop packets with probability `loss`
    kLatencySpike,  // add `extra_latency` of one-way delay
    kPartition,     // drop all traffic between port ranges A and B
    kBlackhole,     // drop all traffic to or from port range A
    kThreadStall,   // wedge server worker thread `a_lo` (not a net fault)
  };

  Kind kind = Kind::kLossBurst;
  vt::TimePoint start{};
  vt::TimePoint end{};
  float loss = 1.0f;             // kLossBurst: drop probability
  vt::Duration extra_latency{};  // kLatencySpike: added one-way delay
  // Port range A (kPartition / kBlackhole), inclusive.
  uint16_t a_lo = 0, a_hi = 0;
  // Port range B (kPartition only), inclusive.
  uint16_t b_lo = 0, b_hi = 0;
};

const char* fault_kind_name(FaultEpisode::Kind k);

class FaultScheduler {
 public:
  struct Counters {
    uint64_t burst_drops = 0;      // dropped by an active loss burst
    uint64_t partition_drops = 0;  // dropped crossing an active partition
    uint64_t blackhole_drops = 0;  // dropped at an active blackhole
    uint64_t delayed_packets = 0;  // packets that took extra spike latency
  };

  // What the timeline says should happen to one packet.
  struct Verdict {
    bool drop = false;
    vt::Duration extra_latency{};
  };

  explicit FaultScheduler(uint64_t seed = 1) : rng_(seed) {}

  // --- schedule construction ---
  void add(FaultEpisode e);
  void add_loss_burst(vt::TimePoint start, vt::Duration dur, float loss);
  void add_latency_spike(vt::TimePoint start, vt::Duration dur,
                         vt::Duration extra);
  // Severs [a_lo, a_hi] <-> [b_lo, b_hi] both ways; traffic within one
  // side is unaffected. Heals at start + dur.
  void add_partition(vt::TimePoint start, vt::Duration dur, uint16_t a_lo,
                     uint16_t a_hi, uint16_t b_lo, uint16_t b_hi);
  // Drops everything to or from `port` — a crashed NIC / dead host.
  void add_blackhole(vt::TimePoint start, vt::Duration dur, uint16_t port);
  // Wedges server worker `thread` for `dur`. Not consulted by the network
  // layer at all: the server's worker loop polls stall_remaining() and
  // spins/sleeps that long, simulating a worker stuck in a long syscall or
  // runaway computation. Lives here so chaos timelines can mix thread
  // stalls with network episodes on one schedule. The unscoped form stalls
  // that worker index in EVERY engine sharing the network; the scoped form
  // reuses the B port range to confine the stall to engines whose
  // base_port falls in [port_lo, port_hi] — how a multi-shard chaos
  // timeline wedges one shard's worker without touching its neighbors.
  void add_thread_stall(vt::TimePoint start, vt::Duration dur, int thread);
  void add_thread_stall(vt::TimePoint start, vt::Duration dur, int thread,
                        uint16_t port_lo, uint16_t port_hi);

  // Applies every episode active at `now` to a src->dst packet, updating
  // the counters. Called by VirtualNetwork under its lock.
  Verdict apply(vt::TimePoint now, uint16_t src, uint16_t dst);

  // Time left in a thread-stall episode covering `thread` at `now` (zero
  // if none). `engine_port` is the polling engine's base_port, matched
  // against the episode's scope range (0 = unscoped caller: only
  // unscoped episodes match). Const — polled by worker threads without
  // the net lock, so it must not touch counters_ / rng_; the *server*
  // counts the stalls it actually serves.
  vt::Duration stall_remaining(vt::TimePoint now, int thread,
                               uint16_t engine_port = 0) const;

  const Counters& counters() const { return counters_; }
  // Episodes active at `now` (diagnostics / tests).
  int active_at(vt::TimePoint now) const;

 private:
  static bool in_range(uint16_t p, uint16_t lo, uint16_t hi) {
    return lo <= p && p <= hi;
  }

  std::vector<FaultEpisode> episodes_;
  Counters counters_;
  Rng rng_;
};

}  // namespace qserv::net
