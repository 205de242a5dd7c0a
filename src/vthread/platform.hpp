// Abstract execution platform. The game server, the clients and the
// virtual network are written against this interface; two implementations
// exist:
//
//  * SimPlatform (sim_platform.hpp) — a deterministic virtual-time SMP
//    simulator. Threads are fibers, time advances only through compute() /
//    sleeps / blocking, and the machine's CPU and hyper-threading layout is
//    modelled explicitly. This substitutes for the paper's quad Xeon with
//    hyper-threading, which we do not have.
//  * RealPlatform (real_platform.hpp) — std::thread / std::mutex /
//    std::condition_variable, for running the identical server code on
//    actual SMP hardware. compute() is a no-op there because real work
//    already consumes real time.
//
// The contract mirrors pthreads closely on purpose: the paper's port of the
// Quake server is a pthreads port, and the code in core/ should read like
// one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/vthread/time.hpp"

namespace qserv::vt {

// Which machine a thread runs on. The paper dedicates one SMP to the server
// and separate client machines to the bots; kClientFarm is an
// infinite-capacity domain so client compute never perturbs the modelled
// server machine.
enum class Domain : uint8_t { kServer, kClientFarm };

class Mutex {
 public:
  virtual ~Mutex() = default;
  virtual void lock() = 0;
  virtual void unlock() = 0;
  virtual bool try_lock() = 0;
};

// RAII guard compatible with any platform Mutex.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

class CondVar {
 public:
  virtual ~CondVar() = default;
  // Caller must hold `m`. Atomically releases, blocks, re-acquires.
  virtual void wait(Mutex& m) = 0;
  // Returns false if the deadline passed without a signal.
  virtual bool wait_until(Mutex& m, TimePoint deadline) = 0;
  virtual void signal() = 0;
  virtual void broadcast() = 0;
};

class Platform {
 public:
  virtual ~Platform() = default;

  virtual TimePoint now() const = 0;

  // Consumes CPU for `d` of nominal single-core time on the calling
  // thread's domain. On the simulated platform this is where modelled
  // computation cost is charged (and may take longer than `d` in virtual
  // time under hyper-threading or CPU oversubscription); on the real
  // platform it is a no-op.
  virtual void compute(Duration d) = 0;

  virtual void sleep_until(TimePoint t) = 0;
  void sleep_for(Duration d) { sleep_until(now() + d); }
  virtual void yield() = 0;

  virtual std::unique_ptr<Mutex> make_mutex(std::string name) = 0;
  virtual std::unique_ptr<CondVar> make_condvar() = 0;

  // Starts a thread. All threads must be spawned before run()/join_all().
  virtual void spawn(std::string name, Domain domain,
                     std::function<void()> fn) = 0;

  // Runs `fn` at (approximately, for the real platform) `d` from now, on
  // no particular thread. `fn` must not block.
  virtual void call_after(Duration d, std::function<void()> fn) = 0;

  // Blocks the caller until every spawned thread has finished. For the
  // simulated platform this drives the event loop.
  virtual void join_all() = 0;

  // Human-readable description of the machine model (Table 1).
  virtual std::string machine_description() const = 0;

  // True on the virtual-time platform. Used by code that needs a real
  // wall-clock safety net (e.g. the worker watchdog's periodic timer)
  // which on the simulated platform would only add events without adding
  // coverage — fibers cannot wedge between scheduling points there.
  virtual bool is_simulated() const { return false; }
};

}  // namespace qserv::vt
