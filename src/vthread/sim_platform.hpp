// Deterministic virtual-time SMP platform.
//
// All simulated threads are fibers multiplexed onto the single OS thread
// that calls run(); exactly one fiber executes at a time (hub-and-spoke via
// Fiber), so the simulation is data-race free by construction and
// bit-deterministic: the event queue is ordered by (virtual time, sequence
// number) and nothing else.
//
// Virtual time advances only through the event queue. Fibers consume time
// via compute() — which occupies a modelled logical CPU — and via sleeps
// and blocking synchronization. The machine model is `cores ×
// ht_per_core` logical CPUs; when k hyper-thread contexts of one core are
// busy, each runs at (ht_throughput / k) of nominal speed (ht_throughput
// defaults to 1.25: two busy hyper-threads together deliver 1.25× one).
// This reproduces the paper's platform, where 8 hardware threads on 4
// cores barely outperform 4.
//
// Threads in Domain::kClientFarm bypass the CPU model entirely (the
// paper's client machines are separate hardware): their compute() just
// advances their own virtual clock.
#pragma once

#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/util/check.hpp"
#include "src/vthread/fiber.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::vt {

class SimPlatform;

// FIFO mutex with ownership hand-off on unlock: the longest waiter is the
// next owner, which keeps lock acquisition order deterministic and fair —
// the natural model for the paper's pthread mutexes under contention.
class SimMutex final : public Mutex {
 public:
  SimMutex(SimPlatform& p, std::string name) : p_(p), name_(std::move(name)) {}
  ~SimMutex() override;

  void lock() override;
  void unlock() override;
  bool try_lock() override;

  uint64_t acquisitions() const override { return acquisitions_; }
  uint64_t contended_acquisitions() const override { return contended_; }
  Duration total_wait() const override { return total_wait_; }
  const std::string& name() const { return name_; }

 private:
  friend class SimCondVar;

  // Owner value used when the hub (non-fiber) context holds the mutex.
  static constexpr int kHubContext = -2;

  SimPlatform& p_;
  std::string name_;
  int owner_ = -1;                // fiber index, -1 when free
  std::deque<uint32_t> waiters_;  // fiber indices, FIFO
  uint64_t acquisitions_ = 0;
  uint64_t contended_ = 0;
  Duration total_wait_{};
};

class SimCondVar final : public CondVar {
 public:
  explicit SimCondVar(SimPlatform& p) : p_(p) {}
  ~SimCondVar() override;

  void wait(Mutex& m) override;
  bool wait_until(Mutex& m, TimePoint deadline) override;
  void signal() override;
  void broadcast() override;

 private:
  friend class SimPlatform;

  SimPlatform& p_;
  std::deque<uint32_t> waiters_;  // fiber indices, FIFO
};

class SimPlatform final : public Platform {
 public:
  struct MachineConfig {
    int cores = 4;
    int ht_per_core = 2;
    // Combined throughput of all busy hyper-thread contexts on one core,
    // relative to a single busy context. 1.25 ≈ published SMT gains for
    // the NetBurst-era Xeons of the paper's testbed.
    double ht_throughput = 1.25;
    std::string cpu_name = "simulated Xeon 1.4 GHz";
  };

  SimPlatform();
  explicit SimPlatform(MachineConfig mc);
  ~SimPlatform() override;

  SimPlatform(const SimPlatform&) = delete;
  SimPlatform& operator=(const SimPlatform&) = delete;

  // Platform interface -----------------------------------------------------
  TimePoint now() const override { return now_; }
  void compute(Duration d) override;
  void sleep_until(TimePoint t) override;
  void yield() override;
  std::unique_ptr<Mutex> make_mutex(std::string name) override;
  std::unique_ptr<CondVar> make_condvar() override;
  void spawn(std::string name, Domain domain, std::function<void()> fn) override;
  void call_after(Duration d, std::function<void()> fn) override;
  void join_all() override { run(); }
  std::string machine_description() const override;
  bool is_simulated() const override { return true; }

  // Simulation control ------------------------------------------------------
  // Processes events until every fiber finishes. Aborts with a diagnostic
  // dump if the system deadlocks (fibers blocked, no pending events).
  void run();
  // Processes events with time <= t; returns true if events remain.
  bool run_until(TimePoint t);

  uint64_t events_processed() const { return events_processed_; }
  void set_event_limit(uint64_t limit) { event_limit_ = limit; }
  const MachineConfig& machine() const { return machine_; }

 private:
  friend class SimMutex;
  friend class SimCondVar;

  enum class FiberState : uint8_t { kReady, kRunning, kBlocked, kFinished };
  enum class WakeResult : uint8_t { kSignaled, kTimeout };

  struct SimFiber {
    std::string name;
    Domain domain = Domain::kServer;
    std::unique_ptr<Fiber> fiber;
    FiberState state = FiberState::kReady;
    uint64_t episode = 0;        // blocking-episode counter
    WakeResult wake_result = WakeResult::kSignaled;
    const char* block_reason = "";
    SimCondVar* waiting_cv = nullptr;  // set while parked on a condvar
    // CPU/compute bookkeeping (valid while computing).
    int cpu = -1;
    uint64_t compute_token = 0;
    double remaining_work_ns = 0.0;
    double rate = 1.0;
    TimePoint last_settle{};
  };

  struct Event {
    TimePoint t;
    uint64_t seq = 0;
    enum Kind : uint8_t { kResume, kTimerWake, kComputeDone, kCallback } kind;
    uint32_t fiber = 0;
    uint64_t token = 0;  // episode (resume/timer) or compute token
    std::function<void()> cb;

    bool operator>(const Event& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  // --- scheduling core ---
  uint32_t current_checked(const char* op) const;
  void push_event(Event e);
  void dispatch(Event& e);
  void resume_fiber(uint32_t idx);
  // Parks the current fiber (state -> kBlocked); resumes when woken.
  // Returns how the fiber was woken.
  WakeResult block_current(const char* reason);
  // Wakes a blocked fiber (eager decision: caller has removed it from any
  // waiter list); schedules its resume at the current time.
  void wake(uint32_t idx, WakeResult r);
  void dump_deadlock() const;

  // --- CPU model ---
  int sibling_base(int cpu) const { return cpu - (cpu % machine_.ht_per_core); }
  int busy_contexts_on_core_of(int cpu) const;
  double rate_for(int busy_contexts) const;
  int find_free_cpu() const;
  void settle(SimFiber& f);
  void schedule_finish(uint32_t idx);
  void start_compute(uint32_t idx, int cpu);
  void refresh_core(int any_cpu_on_core, uint32_t except = UINT32_MAX);
  void on_compute_done(uint32_t idx, uint64_t token);

  MachineConfig machine_;
  TimePoint now_{};
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t event_limit_ = UINT64_MAX;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<std::unique_ptr<SimFiber>> fibers_;
  int current_ = -1;
  int live_fibers_ = 0;
  std::vector<int> cpu_occupant_;     // logical cpu -> fiber index or -1
  std::deque<uint32_t> cpu_queue_;    // fibers waiting for a logical cpu
};

}  // namespace qserv::vt
