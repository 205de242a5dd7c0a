#include "src/vthread/sim_platform.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qserv::vt {

SimPlatform::SimPlatform() : SimPlatform(MachineConfig{}) {}

SimPlatform::SimPlatform(MachineConfig mc) : machine_(mc) {
  QSERV_CHECK(mc.cores >= 1 && mc.ht_per_core >= 1);
  QSERV_CHECK(mc.ht_throughput >= 1.0);
  cpu_occupant_.assign(static_cast<size_t>(mc.cores * mc.ht_per_core), -1);
}

SimPlatform::~SimPlatform() = default;

// --------------------------------------------------------------------------
// Scheduling core
// --------------------------------------------------------------------------

uint32_t SimPlatform::current_checked(const char* op) const {
  QSERV_CHECK_MSG(current_ >= 0, op);
  return static_cast<uint32_t>(current_);
}

void SimPlatform::push_event(Event e) {
  e.seq = next_seq_++;
  events_.push(std::move(e));
}

void SimPlatform::resume_fiber(uint32_t idx) {
  SimFiber& f = *fibers_[idx];
  f.state = FiberState::kRunning;
  const int prev = current_;
  current_ = static_cast<int>(idx);
  f.fiber->resume();
  current_ = prev;
  if (f.fiber->finished()) {
    f.state = FiberState::kFinished;
    --live_fibers_;
    QSERV_CHECK_MSG(f.cpu == -1, "fiber finished while occupying a CPU");
    QSERV_CHECK_MSG(f.waiting_cv == nullptr,
                    "fiber finished while parked on a condvar");
  }
}

SimPlatform::WakeResult SimPlatform::block_current(const char* reason) {
  SimFiber& f = *fibers_[current_checked("block")];
  f.state = FiberState::kBlocked;
  f.block_reason = reason;
  f.fiber->switch_to_hub();
  QSERV_CHECK(f.state == FiberState::kRunning);
  return f.wake_result;
}

void SimPlatform::wake(uint32_t idx, WakeResult r) {
  SimFiber& f = *fibers_[idx];
  QSERV_CHECK_MSG(f.state == FiberState::kBlocked, "waking a non-blocked fiber");
  f.wake_result = r;
  f.state = FiberState::kReady;
  push_event({now_, 0, Event::kResume, idx, f.episode, nullptr});
}

void SimPlatform::dispatch(Event& e) {
  switch (e.kind) {
    case Event::kResume: {
      SimFiber& f = *fibers_[e.fiber];
      QSERV_CHECK(f.state == FiberState::kReady && e.token == f.episode);
      resume_fiber(e.fiber);
      break;
    }
    case Event::kTimerWake: {
      SimFiber& f = *fibers_[e.fiber];
      if (f.state != FiberState::kBlocked || e.token != f.episode) break;
      if (f.waiting_cv != nullptr) {
        auto& w = f.waiting_cv->waiters_;
        w.erase(std::find(w.begin(), w.end(), e.fiber));
        f.waiting_cv = nullptr;
      }
      wake(e.fiber, WakeResult::kTimeout);
      break;
    }
    case Event::kComputeDone:
      on_compute_done(e.fiber, e.token);
      break;
    case Event::kCallback:
      e.cb();
      break;
  }
}

void SimPlatform::run() {
  QSERV_CHECK_MSG(current_ == -1, "run() called from inside a fiber");
  while (!events_.empty()) {
    QSERV_CHECK_MSG(events_processed_ < event_limit_,
                    "simulation event limit exceeded (runaway?)");
    Event e = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    QSERV_CHECK(e.t >= now_);
    now_ = e.t;
    ++events_processed_;
    dispatch(e);
  }
  if (live_fibers_ > 0) {
    dump_deadlock();
    QSERV_CHECK_MSG(false, "virtual-time deadlock: fibers blocked forever");
  }
}

bool SimPlatform::run_until(TimePoint t) {
  QSERV_CHECK_MSG(current_ == -1, "run_until() called from inside a fiber");
  while (!events_.empty() && events_.top().t <= t) {
    QSERV_CHECK_MSG(events_processed_ < event_limit_,
                    "simulation event limit exceeded (runaway?)");
    Event e = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = e.t;
    ++events_processed_;
    dispatch(e);
  }
  if (t > now_) now_ = t;
  return !events_.empty();
}

void SimPlatform::dump_deadlock() const {
  std::fprintf(stderr, "=== virtual-time deadlock: %d live fiber(s) ===\n",
               live_fibers_);
  for (const auto& f : fibers_) {
    if (f->state == FiberState::kFinished) continue;
    std::fprintf(stderr, "  fiber '%s' state=%d blocked-on='%s'\n",
                 f->name.c_str(), static_cast<int>(f->state), f->block_reason);
  }
}

// --------------------------------------------------------------------------
// Platform interface
// --------------------------------------------------------------------------

void SimPlatform::spawn(std::string name, Domain domain,
                        std::function<void()> fn) {
  auto f = std::make_unique<SimFiber>();
  f->name = std::move(name);
  f->domain = domain;
  f->fiber = std::make_unique<Fiber>(std::move(fn));
  f->state = FiberState::kReady;
  fibers_.push_back(std::move(f));
  ++live_fibers_;
  const auto idx = static_cast<uint32_t>(fibers_.size() - 1);
  push_event({now_, 0, Event::kResume, idx, 0, nullptr});
}

void SimPlatform::call_after(Duration d, std::function<void()> fn) {
  QSERV_CHECK(d.ns >= 0);
  push_event({now_ + d, 0, Event::kCallback, 0, 0, std::move(fn)});
}

void SimPlatform::sleep_until(TimePoint t) {
  const uint32_t cur = current_checked("sleep_until");
  SimFiber& f = *fibers_[cur];
  const uint64_t tok = ++f.episode;
  push_event({std::max(t, now_), 0, Event::kTimerWake, cur, tok, nullptr});
  block_current("sleep");
}

void SimPlatform::yield() { sleep_until(now_); }

std::unique_ptr<Mutex> SimPlatform::make_mutex(std::string name) {
  return std::make_unique<SimMutex>(*this, std::move(name));
}

std::unique_ptr<CondVar> SimPlatform::make_condvar() {
  return std::make_unique<SimCondVar>(*this);
}

std::string SimPlatform::machine_description() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%d x %s, %d-way HT (paired-context throughput %.2fx), "
                "virtual-time simulation",
                machine_.cores, machine_.cpu_name.c_str(), machine_.ht_per_core,
                machine_.ht_throughput);
  return buf;
}

// --------------------------------------------------------------------------
// CPU model
// --------------------------------------------------------------------------

int SimPlatform::busy_contexts_on_core_of(int cpu) const {
  const int base = sibling_base(cpu);
  int busy = 0;
  for (int i = 0; i < machine_.ht_per_core; ++i)
    busy += cpu_occupant_[static_cast<size_t>(base + i)] >= 0 ? 1 : 0;
  return busy;
}

double SimPlatform::rate_for(int busy_contexts) const {
  return busy_contexts <= 1 ? 1.0
                            : machine_.ht_throughput / busy_contexts;
}

int SimPlatform::find_free_cpu() const {
  // Prefer a context on a fully idle core (what an OS scheduler aware of
  // hyper-threading does); otherwise take the lowest-numbered free context.
  int any_free = -1;
  for (int cpu = 0; cpu < static_cast<int>(cpu_occupant_.size()); ++cpu) {
    if (cpu_occupant_[static_cast<size_t>(cpu)] >= 0) continue;
    if (any_free < 0) any_free = cpu;
    if (busy_contexts_on_core_of(cpu) == 0) return cpu;
  }
  return any_free;
}

void SimPlatform::settle(SimFiber& f) {
  const double elapsed = static_cast<double>((now_ - f.last_settle).ns);
  f.remaining_work_ns = std::max(0.0, f.remaining_work_ns - elapsed * f.rate);
  f.last_settle = now_;
}

void SimPlatform::schedule_finish(uint32_t idx) {
  SimFiber& f = *fibers_[idx];
  QSERV_CHECK(f.rate > 0.0);
  const auto finish_in =
      static_cast<int64_t>(std::ceil(f.remaining_work_ns / f.rate));
  push_event({now_ + Duration{finish_in}, 0, Event::kComputeDone, idx,
              ++f.compute_token, nullptr});
}

void SimPlatform::refresh_core(int any_cpu_on_core, uint32_t except) {
  const int base = sibling_base(any_cpu_on_core);
  const int busy = busy_contexts_on_core_of(any_cpu_on_core);
  const double rate = rate_for(busy);
  for (int i = 0; i < machine_.ht_per_core; ++i) {
    const int occ = cpu_occupant_[static_cast<size_t>(base + i)];
    if (occ < 0 || static_cast<uint32_t>(occ) == except) continue;
    SimFiber& f = *fibers_[static_cast<size_t>(occ)];
    settle(f);
    f.rate = rate;
    schedule_finish(static_cast<uint32_t>(occ));
  }
}

void SimPlatform::start_compute(uint32_t idx, int cpu) {
  SimFiber& f = *fibers_[idx];
  cpu_occupant_[static_cast<size_t>(cpu)] = static_cast<int>(idx);
  f.cpu = cpu;
  f.last_settle = now_;
  refresh_core(cpu);  // sets rates and finish events for this core
}

void SimPlatform::on_compute_done(uint32_t idx, uint64_t token) {
  SimFiber& f = *fibers_[idx];
  if (f.state != FiberState::kBlocked || token != f.compute_token ||
      f.cpu == -1) {
    return;  // superseded by a reschedule
  }
  settle(f);
  if (f.remaining_work_ns > 0.5) {
    schedule_finish(idx);  // numeric residue; finish the remainder
    return;
  }
  const int freed = f.cpu;
  cpu_occupant_[static_cast<size_t>(freed)] = -1;
  f.cpu = -1;
  f.rate = 1.0;
  refresh_core(freed, idx);  // sibling may speed back up
  if (!cpu_queue_.empty()) {
    const uint32_t next = cpu_queue_.front();
    cpu_queue_.pop_front();
    start_compute(next, freed);
  }
  wake(idx, WakeResult::kSignaled);
}

void SimPlatform::compute(Duration d) {
  if (d.ns <= 0) return;
  const uint32_t cur = current_checked("compute");
  SimFiber& f = *fibers_[cur];
  if (f.domain == Domain::kClientFarm) {
    // Client machines are outside the modelled server SMP: compute there
    // just takes time, with no contention.
    sleep_until(now_ + d);
    return;
  }
  f.remaining_work_ns = static_cast<double>(d.ns);
  f.rate = 0.0;
  f.last_settle = now_;
  ++f.episode;
  const int cpu = find_free_cpu();
  if (cpu >= 0) {
    start_compute(cur, cpu);
  } else {
    cpu_queue_.push_back(cur);
  }
  block_current("cpu");
}

// --------------------------------------------------------------------------
// SimMutex / SimCondVar
// --------------------------------------------------------------------------

SimMutex::~SimMutex() {
  QSERV_CHECK_MSG(owner_ == -1 && waiters_.empty(),
                  "destroying a held or awaited mutex");
}

void SimMutex::lock() {
  if (p_.current_ < 0) {
    // Hub context (setup code, scheduler callbacks): execution is
    // serialized, so the lock can only be free here — a fiber holding it
    // across a blocking operation would be a design error for any mutex
    // touched from callbacks.
    QSERV_CHECK_MSG(owner_ == -1,
                    "hub-context lock on a mutex held by a blocked fiber");
    owner_ = kHubContext;
    return;
  }
  const uint32_t cur = static_cast<uint32_t>(p_.current_);
  if (owner_ == -1) {
    owner_ = static_cast<int>(cur);
    return;
  }
  QSERV_CHECK_MSG(owner_ != static_cast<int>(cur), "recursive lock");
  auto& f = *p_.fibers_[cur];
  ++f.episode;
  waiters_.push_back(cur);
  p_.block_current(name_.c_str());
  // Ownership was handed to us by unlock().
  QSERV_CHECK(owner_ == static_cast<int>(cur));
}

bool SimMutex::try_lock() {
  if (owner_ != -1) return false;
  owner_ = p_.current_ >= 0 ? p_.current_ : kHubContext;
  return true;
}

void SimMutex::unlock() {
  const int expected = p_.current_ >= 0 ? p_.current_ : kHubContext;
  QSERV_CHECK_MSG(owner_ == expected, "unlock by non-owner");
  if (waiters_.empty()) {
    owner_ = -1;
    return;
  }
  const uint32_t next = waiters_.front();
  waiters_.pop_front();
  owner_ = static_cast<int>(next);
  p_.wake(next, SimPlatform::WakeResult::kSignaled);
}

SimCondVar::~SimCondVar() {
  QSERV_CHECK_MSG(waiters_.empty(), "destroying an awaited condvar");
}

void SimCondVar::wait(Mutex& m) {
  const uint32_t cur = p_.current_checked("CondVar::wait");
  auto& sm = static_cast<SimMutex&>(m);
  QSERV_CHECK_MSG(sm.owner_ == static_cast<int>(cur),
                  "CondVar::wait without holding the mutex");
  auto& f = *p_.fibers_[cur];
  ++f.episode;
  waiters_.push_back(cur);
  f.waiting_cv = this;
  sm.unlock();
  const auto r = p_.block_current("condvar");
  QSERV_CHECK(r == SimPlatform::WakeResult::kSignaled);
  m.lock();
}

bool SimCondVar::wait_until(Mutex& m, TimePoint deadline) {
  const uint32_t cur = p_.current_checked("CondVar::wait_until");
  auto& sm = static_cast<SimMutex&>(m);
  QSERV_CHECK_MSG(sm.owner_ == static_cast<int>(cur),
                  "CondVar::wait_until without holding the mutex");
  auto& f = *p_.fibers_[cur];
  const uint64_t tok = ++f.episode;
  waiters_.push_back(cur);
  f.waiting_cv = this;
  p_.push_event({std::max(deadline, p_.now_), 0,
                 SimPlatform::Event::kTimerWake, cur, tok, nullptr});
  sm.unlock();
  const auto r = p_.block_current("condvar");
  m.lock();
  return r == SimPlatform::WakeResult::kSignaled;
}

void SimCondVar::signal() {
  if (waiters_.empty()) return;
  const uint32_t idx = waiters_.front();
  waiters_.pop_front();
  p_.fibers_[idx]->waiting_cv = nullptr;
  p_.wake(idx, SimPlatform::WakeResult::kSignaled);
}

void SimCondVar::broadcast() {
  while (!waiters_.empty()) signal();
}

}  // namespace qserv::vt
