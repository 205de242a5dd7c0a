// Measurement seams the benchmark wraps around the program, built only
// from public interfaces (vt::Platform, net::Transport):
//
//  * MeteredPlatform — a RealPlatform that remembers the CPU clock of
//    every server-domain thread, so server CPU time can be read without
//    counting the load generator running in the same process, turns on
//    allocation counting for those threads and pins each to its CPU.
//  * TimedTransport — (trace runs) a pass-through transport for the
//    server that times every socket call and stamps per-move arrival and
//    reply times into a MoveLedger.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/transport.hpp"
#include "src/vthread/real_platform.hpp"

namespace hostbench {

// Monotonic host time in ns (the clock std::chrono::steady_clock and
// timerfd(CLOCK_MONOTONIC) share).
int64_t mono_ns();

// Heap allocations made so far by server-domain threads (alloc_count.cpp).
uint64_t server_allocs();
// Makes the calling thread's allocations count towards server_allocs().
void count_allocs_on_this_thread();

// Restricts the calling thread to one CPU.
void pin_this_thread(int cpu);

class MeteredPlatform final : public qserv::vt::Platform {
 public:
  // Server thread k is pinned to server_cpus[k % size]; empty = unpinned.
  explicit MeteredPlatform(std::vector<int> server_cpus)
      : server_cpus_(std::move(server_cpus)) {}

  qserv::vt::TimePoint now() const override { return inner_.now(); }
  void compute(qserv::vt::Duration d) override { inner_.compute(d); }
  void sleep_until(qserv::vt::TimePoint t) override { inner_.sleep_until(t); }
  void yield() override { inner_.yield(); }
  std::unique_ptr<qserv::vt::Mutex> make_mutex(std::string name) override {
    return inner_.make_mutex(std::move(name));
  }
  std::unique_ptr<qserv::vt::CondVar> make_condvar() override {
    return inner_.make_condvar();
  }
  void spawn(std::string name, qserv::vt::Domain domain,
             std::function<void()> fn) override;
  void call_after(qserv::vt::Duration d, std::function<void()> fn) override {
    inner_.call_after(d, std::move(fn));
  }
  void join_all() override { inner_.join_all(); }
  std::string machine_description() const override {
    return inner_.machine_description();
  }

  // Summed user+system CPU time of the server threads, or -1 when a
  // thread's clock could not be read (it has already exited). Read it
  // only while the server runs.
  int64_t server_cpu_ns() const;
  int server_threads() const;

 private:
  qserv::vt::RealPlatform inner_;
  const std::vector<int> server_cpus_;
  mutable std::mutex mu_;
  std::vector<clockid_t> server_clocks_;  // guarded by mu_
};

// Per-move timestamps keyed by (client, netchan sequence). The load
// generator writes due/sent before the datagram leaves; the server-side
// sockets add dequeued/replied; the generator reads all four when the
// reply arrives. A ring of kRing moves per client is plenty: replies come
// within a few frames.
class MoveLedger {
 public:
  struct Stamps {
    int64_t due = 0, sent = 0, dequeued = 0, replied = 0;
  };

  MoveLedger(uint16_t first_client_port, int clients);

  void on_sent(int client, uint32_t chan_seq, int64_t due, int64_t sent);
  void on_dequeued(uint16_t src_port, uint32_t chan_seq, int64_t t);
  void on_replied(uint16_t dst_port, uint32_t acked_chan_seq, int64_t t);
  // False unless every stamp of that move is present.
  bool read(int client, uint32_t chan_seq, Stamps& out) const;

 private:
  static constexpr uint32_t kRing = 64;
  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<int64_t> due{0}, sent{0}, dequeued{0}, replied{0};
  };
  Slot* slot(int client, uint32_t seq) const;
  Slot* slot_for_port(uint16_t port, uint32_t seq) const;

  uint16_t first_port_;
  int clients_;
  std::unique_ptr<Slot[]> slots_;
};

// Socket-call totals of the server side (trace runs).
struct SocketTimes {
  std::atomic<int64_t> send_ns{0};
  std::atomic<uint64_t> sends{0};
  std::atomic<int64_t> recv_ns{0};
  std::atomic<uint64_t> recv_hits{0};
};

class TimedTransport final : public qserv::net::Transport {
 public:
  TimedTransport(qserv::net::Transport& inner, MoveLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  std::unique_ptr<qserv::net::Socket> try_open(
      uint16_t port, qserv::net::OpenError* err = nullptr) override;
  std::unique_ptr<qserv::net::Selector> make_selector() override;
  qserv::vt::Platform& platform() override { return inner_.platform(); }
  const qserv::net::FaultScheduler* faults_or_null() const override {
    return inner_.faults_or_null();
  }
  qserv::net::TransportCounters counters() const override {
    return inner_.counters();
  }

  const SocketTimes& times() const { return times_; }

 private:
  friend class TimedSocket;
  qserv::net::Transport& inner_;
  MoveLedger& ledger_;
  SocketTimes times_;
};

}  // namespace hostbench
