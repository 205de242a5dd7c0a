// Real-thread implementation of the Platform interface: std::thread,
// std::mutex, std::condition_variable_any, wall-clock time. Lets the exact
// same server code run on actual SMP hardware; on a real multi-core host
// the parallel server exhibits true hardware parallelism.
//
// compute() is a no-op here: on real hardware the modelled work has
// already been done by the caller in real time. (An optional calibration
// spin can be enabled for hosts whose real work is much cheaper than the
// modelled 2004-era costs.)
#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/vthread/platform.hpp"

namespace qserv::vt {

class RealMutex final : public Mutex {
 public:
  void lock() override { m_.lock(); }
  void unlock() override { m_.unlock(); }
  bool try_lock() override { return m_.try_lock(); }

 private:
  std::mutex m_;
};

class RealPlatform;

class RealCondVar final : public CondVar {
 public:
  explicit RealCondVar(const RealPlatform& p) : p_(p) {}

  void wait(Mutex& m) override { cv_.wait(m); }
  bool wait_until(Mutex& m, TimePoint deadline) override;
  void signal() override { cv_.notify_one(); }
  void broadcast() override { cv_.notify_all(); }

 private:
  const RealPlatform& p_;
  std::condition_variable_any cv_;
};

class RealPlatform final : public Platform {
 public:
  // `spin_compute` makes compute() busy-wait for the modelled duration —
  // useful to reproduce 2004-scale per-request costs on fast modern CPUs.
  explicit RealPlatform(bool spin_compute = false);
  ~RealPlatform() override;

  TimePoint now() const override;
  void compute(Duration d) override;
  void sleep_until(TimePoint t) override;
  void yield() override { std::this_thread::yield(); }
  std::unique_ptr<Mutex> make_mutex(std::string name) override;
  std::unique_ptr<CondVar> make_condvar() override;
  void spawn(std::string name, Domain domain, std::function<void()> fn) override;
  void call_after(Duration d, std::function<void()> fn) override;
  void join_all() override;
  std::string machine_description() const override;

  std::chrono::steady_clock::time_point to_chrono(TimePoint t) const {
    return epoch_ + std::chrono::nanoseconds(t.ns);
  }

 private:
  void timer_loop();

  std::chrono::steady_clock::time_point epoch_;
  bool spin_compute_;

  std::mutex threads_mu_;
  std::vector<std::thread> threads_;

  // Timer service for call_after.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::multimap<TimePoint, std::function<void()>> timers_;
  bool timer_stop_ = false;
  int timer_callbacks_running_ = 0;  // join_all waits for these to drain
  std::thread timer_thread_;
};

}  // namespace qserv::vt
