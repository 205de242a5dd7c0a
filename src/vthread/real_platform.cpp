#include "src/vthread/real_platform.hpp"

#include <cstdio>

#include "src/util/check.hpp"

namespace qserv::vt {

bool RealCondVar::wait_until(Mutex& m, TimePoint deadline) {
  return cv_.wait_until(m, p_.to_chrono(deadline)) == std::cv_status::no_timeout;
}

RealPlatform::RealPlatform(bool spin_compute)
    : epoch_(std::chrono::steady_clock::now()), spin_compute_(spin_compute) {
  timer_thread_ = std::thread([this] { timer_loop(); });
}

RealPlatform::~RealPlatform() {
  join_all();
  {
    std::lock_guard<std::mutex> g(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
}

TimePoint RealPlatform::now() const {
  const auto d = std::chrono::steady_clock::now() - epoch_;
  return {std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()};
}

void RealPlatform::compute(Duration d) {
  if (!spin_compute_ || d.ns <= 0) return;
  const TimePoint until = now() + d;
  while (now() < until) {
    // Busy wait; calibration mode only.
  }
}

void RealPlatform::sleep_until(TimePoint t) {
  std::this_thread::sleep_until(to_chrono(t));
}

std::unique_ptr<Mutex> RealPlatform::make_mutex(std::string /*name*/) {
  return std::make_unique<RealMutex>();
}

std::unique_ptr<CondVar> RealPlatform::make_condvar() {
  return std::make_unique<RealCondVar>(*this);
}

void RealPlatform::spawn(std::string name, Domain /*domain*/,
                         std::function<void()> fn) {
  std::lock_guard<std::mutex> g(threads_mu_);
  (void)name;
  threads_.emplace_back(std::move(fn));
}

void RealPlatform::call_after(Duration d, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(timer_mu_);
    timers_.emplace(now() + d, std::move(fn));
  }
  timer_cv_.notify_all();
}

void RealPlatform::timer_loop() {
  std::unique_lock<std::mutex> g(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(g);
      continue;
    }
    const TimePoint next = timers_.begin()->first;
    if (now() < next) {
      timer_cv_.wait_until(g, to_chrono(next));
      continue;
    }
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    ++timer_callbacks_running_;
    g.unlock();
    fn();
    g.lock();
    --timer_callbacks_running_;
    timer_cv_.notify_all();
  }
}

void RealPlatform::join_all() {
  // Drain in rounds: a timer callback (e.g. a shard supervisor restoring
  // a crashed engine) may spawn fresh threads after the first swap, so
  // keep going until a full round finds nothing new.
  for (;;) {
    std::vector<std::thread> taken;
    {
      std::lock_guard<std::mutex> g(threads_mu_);
      taken.swap(threads_);
    }
    for (auto& t : taken) t.join();
    // A timer callback (typically the stop signal) can still be mid-flight
    // on the timer thread; returning before it finishes would let the
    // caller destroy the objects the callback is touching.
    {
      std::unique_lock<std::mutex> g(timer_mu_);
      timer_cv_.wait(g, [this] { return timer_callbacks_running_ == 0; });
    }
    std::lock_guard<std::mutex> g(threads_mu_);
    if (threads_.empty()) return;
  }
}

std::string RealPlatform::machine_description() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "host hardware, %u logical CPU(s), real time",
                std::thread::hardware_concurrency());
  return buf;
}

}  // namespace qserv::vt
