#include "metered.hpp"

#include <pthread.h>
#include <sched.h>


namespace hostbench {

namespace net = qserv::net;
namespace vt = qserv::vt;

int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void MeteredPlatform::spawn(std::string name, vt::Domain domain,
                            std::function<void()> fn) {
  if (domain != vt::Domain::kServer) {
    inner_.spawn(std::move(name), domain, std::move(fn));
    return;
  }
  inner_.spawn(std::move(name), domain, [this, fn = std::move(fn)] {
    clockid_t cid{};
    if (pthread_getcpuclockid(pthread_self(), &cid) == 0) {
      std::lock_guard<std::mutex> g(mu_);
      if (!server_cpus_.empty()) {
        const size_t k = server_clocks_.size() % server_cpus_.size();
        pin_this_thread(server_cpus_[k]);
      }
      server_clocks_.push_back(cid);
    }
    count_allocs_on_this_thread();
    fn();
  });
}

int64_t MeteredPlatform::server_cpu_ns() const {
  std::lock_guard<std::mutex> g(mu_);
  int64_t total = 0;
  for (const clockid_t cid : server_clocks_) {
    timespec ts{};
    if (clock_gettime(cid, &ts) != 0) return -1;
    total += static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  return total;
}

int MeteredPlatform::server_threads() const {
  std::lock_guard<std::mutex> g(mu_);
  return static_cast<int>(server_clocks_.size());
}

// ---------------------------------------------------------------------------

MoveLedger::MoveLedger(uint16_t first_client_port, int clients)
    : first_port_(first_client_port),
      clients_(clients),
      slots_(new Slot[static_cast<size_t>(clients) * kRing]) {}

MoveLedger::Slot* MoveLedger::slot(int client, uint32_t seq) const {
  return &slots_[static_cast<size_t>(client) * kRing + seq % kRing];
}

MoveLedger::Slot* MoveLedger::slot_for_port(uint16_t port,
                                            uint32_t seq) const {
  const int client = static_cast<int>(port) - static_cast<int>(first_port_);
  if (client < 0 || client >= clients_) return nullptr;
  Slot* s = slot(client, seq);
  return s->seq.load(std::memory_order_acquire) == seq ? s : nullptr;
}

void MoveLedger::on_sent(int client, uint32_t chan_seq, int64_t due,
                         int64_t sent) {
  Slot* s = slot(client, chan_seq);
  s->seq.store(0, std::memory_order_release);
  s->due.store(due, std::memory_order_relaxed);
  s->sent.store(sent, std::memory_order_relaxed);
  s->dequeued.store(0, std::memory_order_relaxed);
  s->replied.store(0, std::memory_order_relaxed);
  s->seq.store(chan_seq, std::memory_order_release);
}

void MoveLedger::on_dequeued(uint16_t src_port, uint32_t chan_seq,
                             int64_t t) {
  if (Slot* s = slot_for_port(src_port, chan_seq))
    s->dequeued.store(t, std::memory_order_release);
}

void MoveLedger::on_replied(uint16_t dst_port, uint32_t acked_chan_seq,
                            int64_t t) {
  Slot* s = slot_for_port(dst_port, acked_chan_seq);
  int64_t none = 0;
  if (s != nullptr)
    s->replied.compare_exchange_strong(none, t, std::memory_order_release);
}

bool MoveLedger::read(int client, uint32_t chan_seq, Stamps& out) const {
  const Slot* s = slot(client, chan_seq);
  if (s->seq.load(std::memory_order_acquire) != chan_seq) return false;
  out.due = s->due.load(std::memory_order_relaxed);
  out.sent = s->sent.load(std::memory_order_relaxed);
  out.dequeued = s->dequeued.load(std::memory_order_acquire);
  out.replied = s->replied.load(std::memory_order_acquire);
  return out.dequeued != 0 && out.replied != 0;
}

// ---------------------------------------------------------------------------

namespace {

// The netchan header (net/netchan.hpp): u32 sequence, then u32 latest
// peer sequence seen, both little-endian.
uint32_t header_u32(const uint8_t* p, size_t len, size_t at) {
  if (len < at + 4) return 0;
  return static_cast<uint32_t>(p[at]) | static_cast<uint32_t>(p[at + 1]) << 8 |
         static_cast<uint32_t>(p[at + 2]) << 16 |
         static_cast<uint32_t>(p[at + 3]) << 24;
}

}  // namespace

class TimedSocket final : public net::Socket {
 public:
  TimedSocket(TimedTransport& t, std::unique_ptr<net::Socket> inner)
      : t_(t), inner_(std::move(inner)) {}

  net::Socket& inner() { return *inner_; }

  uint16_t port() const override { return inner_->port(); }

  bool send(uint16_t dst, std::vector<uint8_t> payload) override {
    const int64_t t0 = mono_ns();
    t_.ledger_.on_replied(dst, header_u32(payload.data(), payload.size(), 4),
                          t0);
    const bool ok = inner_->send(dst, std::move(payload));
    account_send(t0);
    return ok;
  }

  bool send_span(uint16_t dst, const uint8_t* data, size_t len) override {
    const int64_t t0 = mono_ns();
    t_.ledger_.on_replied(dst, header_u32(data, len, 4), t0);
    const bool ok = inner_->send_span(dst, data, len);
    account_send(t0);
    return ok;
  }

  bool try_recv(net::Datagram& out) override {
    const int64_t t0 = mono_ns();
    const bool got = inner_->try_recv(out);
    const int64_t t1 = mono_ns();
    SocketTimes& st = t_.times_;
    st.recv_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (got) {
      st.recv_hits.fetch_add(1, std::memory_order_relaxed);
      t_.ledger_.on_dequeued(
          out.src_port,
          header_u32(out.payload.data(), out.payload.size(), 0), t1);
    }
    return got;
  }

  vt::TimePoint next_ready() const override { return inner_->next_ready(); }
  bool has_ready() const override { return inner_->has_ready(); }
  size_t queued() const override { return inner_->queued(); }
  uint64_t received_count() const override {
    return inner_->received_count();
  }

 private:
  void account_send(int64_t t0) {
    SocketTimes& st = t_.times_;
    st.send_ns.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
    st.sends.fetch_add(1, std::memory_order_relaxed);
  }

  TimedTransport& t_;
  std::unique_ptr<net::Socket> inner_;
};

namespace {

// Selectors of the wrapped transport only know its own socket type, so
// registration unwraps the TimedSocket.
class TimedSelector final : public net::Selector {
 public:
  explicit TimedSelector(std::unique_ptr<net::Selector> inner)
      : inner_(std::move(inner)) {}

  void add(net::Socket& s) override {
    inner_->add(static_cast<TimedSocket&>(s).inner());
  }
  void remove(net::Socket& s) override {
    inner_->remove(static_cast<TimedSocket&>(s).inner());
  }
  bool wait_until(vt::TimePoint deadline) override {
    return inner_->wait_until(deadline);
  }
  void poke() override { inner_->poke(); }

 private:
  std::unique_ptr<net::Selector> inner_;
};

}  // namespace

std::unique_ptr<net::Socket> TimedTransport::try_open(uint16_t port,
                                                      net::OpenError* err) {
  auto inner = inner_.try_open(port, err);
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedSocket>(*this, std::move(inner));
}

std::unique_ptr<net::Selector> TimedTransport::make_selector() {
  return std::make_unique<TimedSelector>(inner_.make_selector());
}

}  // namespace hostbench
