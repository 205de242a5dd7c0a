#include "src/net/real_udp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/util/check.hpp"

namespace qserv::net {

namespace {

// Drops >2^31 ms deadlines (TimePoint::max() waits) to a finite epoll
// timeout; the waiting loop re-arms, so the cap only bounds one sleep.
int epoll_timeout_ms(vt::TimePoint now, vt::TimePoint deadline) {
  if (deadline.ns <= now.ns) return 0;
  const int64_t remaining_ns = deadline.ns - now.ns;
  const int64_t ms = remaining_ns / 1'000'000 + 1;  // round up: never early
  return static_cast<int>(std::min<int64_t>(ms, 60'000));
}

void set_nonblocking_cloexec(int fd) {
  const int fl = fcntl(fd, F_GETFL);
  if (fl >= 0) fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  const int fdfl = fcntl(fd, F_GETFD);
  if (fdfl >= 0) fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC);
}

}  // namespace

// ---------------------------------------------------------------------------
// RealSocket

class RealSocket final : public Socket {
 public:
  RealSocket(RealUdpTransport& net, uint16_t port, int fd)
      : net_(net), port_(port), fd_(fd) {}

  ~RealSocket() override {
    net_.unregister(port_, this);
    ::close(fd_);
  }

  uint16_t port() const override { return port_; }
  int fd() const { return fd_; }

  bool send(uint16_t dst, std::vector<uint8_t> payload) override {
    return send_span(dst, payload.data(), payload.size());
  }

  // A real datagram socket needs no owning buffer past the sendto(2)
  // call, so the span goes straight to the kernel — this is the zero-copy
  // end of the reply path's in-place sends.
  bool send_span(uint16_t dst, const uint8_t* data, size_t len) override {
    sockaddr_in to{};
    if (!net_.lookup_route(dst, to)) {
      // No learned route yet (first packet of a flow): fall back to the
      // configured host — correct on loopback, where every peer binds the
      // same address and differs only by port.
      to.sin_family = AF_INET;
      to.sin_port = htons(dst);
      to.sin_addr = net_.host_addr_;
    }
    const ssize_t n = ::sendto(fd_, data, len, 0,
                               reinterpret_cast<const sockaddr*>(&to),
                               sizeof(to));
    if (n >= 0) {
      net_.sent_.fetch_add(1, std::memory_order_relaxed);
      net_.bytes_sent_.fetch_add(len, std::memory_order_relaxed);
      return true;
    }
    if (errno == ECONNREFUSED) {
      // Deferred ICMP port-unreachable from an earlier send on this
      // socket — the real-world shape of the virtual transport's
      // closed-port accounting.
      net_.to_closed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // EMSGSIZE / EAGAIN / ENOBUFS / anything else: the datagram never
      // left this host. Same counter the virtual loss model feeds.
      net_.dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  bool try_recv(Datagram& out) override {
    std::lock_guard<std::mutex> lock(peek_mu_);
    if (peeked_) {
      out = std::move(*peeked_);
      peeked_.reset();
      return true;
    }
    return recv_from_kernel(out);
  }

  // The real transport cannot see scheduled deliveries the way the
  // virtual one can; a datagram is either in the kernel buffer (ready
  // now) or invisible. One-datagram peek keeps the Socket contract.
  vt::TimePoint next_ready() const override {
    return peek() ? net_.platform_.now() : vt::TimePoint::max();
  }
  bool has_ready() const override { return peek(); }
  size_t queued() const override { return peek() ? 1 : 0; }

  uint64_t received_count() const override {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  friend class RealSelector;

  bool parked() const {
    std::lock_guard<std::mutex> lock(peek_mu_);
    return peeked_.has_value();
  }

  bool peek() const {
    std::lock_guard<std::mutex> lock(peek_mu_);
    if (peeked_) return true;
    Datagram d;
    if (!const_cast<RealSocket*>(this)->recv_from_kernel(d)) return false;
    peeked_ = std::move(d);
    return true;
  }

  // Caller holds peek_mu_ (which also guards the scratch buffer).
  bool recv_from_kernel(Datagram& out) {
    std::vector<uint8_t>& buf = scratch_;
    buf.resize(net_.cfg_.max_datagram);
    for (;;) {
      sockaddr_in from{};
      iovec iov{buf.data(), buf.size()};
      alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(uint32_t))];
      msghdr msg{};
      msg.msg_name = &from;
      msg.msg_namelen = sizeof(from);
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = ctrl;
      msg.msg_controllen = sizeof(ctrl);
      // MSG_TRUNC in flags makes recvmsg return the true wire length even
      // when it exceeds the buffer — that is the oversized-datagram clamp.
      const ssize_t n = ::recvmsg(fd_, &msg, MSG_TRUNC);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNREFUSED) {
          // Drain the queued ICMP error and try again for actual data.
          net_.to_closed_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        return false;  // EAGAIN: nothing ready
      }
      harvest_overflow(msg);
      const size_t wire = static_cast<size_t>(n);
      const size_t take = std::min(wire, buf.size());
      if (wire > buf.size())
        net_.truncated_.fetch_add(1, std::memory_order_relaxed);
      out.payload.assign(buf.begin(),
                         buf.begin() + static_cast<ptrdiff_t>(take));
      out.src_port = ntohs(from.sin_port);
      out.dst_port = port_;
      out.sent_at = out.deliver_at = net_.platform_.now();
      net_.learn_route(out.src_port, from);
      received_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  // SO_RXQ_OVFL attaches the socket's cumulative kernel-drop count to
  // each received datagram; deltas feed the shared overflow counter.
  void harvest_overflow(const msghdr& msg) {
    for (cmsghdr* c = CMSG_FIRSTHDR(const_cast<msghdr*>(&msg)); c != nullptr;
         c = CMSG_NXTHDR(const_cast<msghdr*>(&msg), c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SO_RXQ_OVFL) continue;
      uint32_t total = 0;
      memcpy(&total, CMSG_DATA(c), sizeof(total));
      const uint32_t last = last_ovfl_.exchange(total);
      if (total > last)
        net_.overflowed_.fetch_add(total - last, std::memory_order_relaxed);
    }
  }

  RealUdpTransport& net_;
  const uint16_t port_;
  const int fd_;
  std::atomic<uint64_t> received_{0};
  std::atomic<uint32_t> last_ovfl_{0};
  mutable std::mutex peek_mu_;
  mutable std::optional<Datagram> peeked_;
  std::vector<uint8_t> scratch_;
};

// ---------------------------------------------------------------------------
// RealSelector

class RealSelector final : public Selector {
 public:
  explicit RealSelector(RealUdpTransport& net) : net_(net) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    QSERV_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    QSERV_CHECK_MSG(event_fd_ >= 0, "eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // null tags the poke channel
    QSERV_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0);
  }

  ~RealSelector() override {
    ::close(event_fd_);
    ::close(epoll_fd_);
  }

  void add(Socket& s) override {
    // Transports are homogeneous per the seam contract: a real selector
    // only ever sees real sockets.
    auto& rs = static_cast<RealSocket&>(s);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &rs;
    QSERV_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, rs.fd(), &ev) == 0);
    sockets_.push_back(&rs);
  }

  void remove(Socket& s) override {
    auto& rs = static_cast<RealSocket&>(s);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, rs.fd(), nullptr);
    sockets_.erase(std::remove(sockets_.begin(), sockets_.end(), &rs),
                   sockets_.end());
  }

  bool wait_until(vt::TimePoint deadline) override {
    for (;;) {
      // A datagram parked in a socket's peek slot is invisible to epoll
      // (already read from the kernel) — check before sleeping. One still
      // in the kernel wakes the level-triggered wait below, so peeking
      // for it here would only add a recvmsg per wake.
      for (const RealSocket* s : sockets_)
        if (s->parked()) return true;
      const vt::TimePoint now = net_.platform().now();
      epoll_event evs[16];
      const int n = ::epoll_wait(epoll_fd_, evs, 16,
                                 epoll_timeout_ms(now, deadline));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      bool data = false;
      bool poked = false;
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.ptr == nullptr) {
          uint64_t v = 0;
          [[maybe_unused]] ssize_t r = ::read(event_fd_, &v, sizeof(v));
          poked = true;
        } else {
          data = true;
        }
      }
      if (data) return true;
      if (poked) return false;
      if (net_.platform().now().ns >= deadline.ns) return false;
    }
  }

  void poke() override {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(event_fd_, &one, sizeof(one));
  }

 private:
  RealUdpTransport& net_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::vector<RealSocket*> sockets_;
};

// ---------------------------------------------------------------------------
// RealUdpTransport

RealUdpTransport::RealUdpTransport(vt::Platform& platform, Config cfg)
    : platform_(platform), cfg_(std::move(cfg)) {
  QSERV_CHECK_MSG(!platform.is_simulated(),
                  "RealUdpTransport needs wall-clock threads (RealPlatform)");
  QSERV_CHECK_MSG(
      ::inet_pton(AF_INET, cfg_.host.c_str(), &host_addr_) == 1,
      "RealUdpTransport: host must be an IPv4 literal");
}

RealUdpTransport::~RealUdpTransport() {
  std::lock_guard<std::mutex> lock(mu_);
  QSERV_CHECK_MSG(ports_.empty(), "sockets must not outlive the transport");
  // Adopted descriptors never claimed by a try_open still belong to us.
  for (const auto& [port, fd] : cfg_.adopted_fds) ::close(fd);
}

std::unique_ptr<Socket> RealUdpTransport::try_open(uint16_t port,
                                                   OpenError* err) {
  if (err != nullptr) *err = OpenError::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ports_.count(port) != 0) {
      // SO_REUSEPORT would let the kernel accept a duplicate bind, so the
      // transport enforces the one-socket-per-port model itself, keeping
      // collision semantics identical to the virtual network.
      if (err != nullptr) *err = OpenError::kPortInUse;
      return nullptr;
    }
  }
  int fd = -1;
  const auto adopted = cfg_.adopted_fds.find(port);
  if (adopted != cfg_.adopted_fds.end()) {
    fd = adopted->second;
    cfg_.adopted_fds.erase(adopted);
    set_nonblocking_cloexec(fd);
  } else {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (err != nullptr) *err = OpenError::kSysError;
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
    if (cfg_.recv_buffer_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &cfg_.recv_buffer_bytes,
                   sizeof(cfg_.recv_buffer_bytes));
    if (cfg_.send_buffer_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.send_buffer_bytes,
                   sizeof(cfg_.send_buffer_bytes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr = host_addr_;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int bind_errno = errno;
      ::close(fd);
      if (err != nullptr)
        *err = bind_errno == EADDRINUSE ? OpenError::kPortInUse
                                        : OpenError::kSysError;
      return nullptr;
    }
  }
  auto sock = std::unique_ptr<RealSocket>(new RealSocket(*this, port, fd));
  std::lock_guard<std::mutex> lock(mu_);
  ports_[port] = sock.get();
  return sock;
}

std::unique_ptr<Selector> RealUdpTransport::make_selector() {
  return std::make_unique<RealSelector>(*this);
}

TransportCounters RealUdpTransport::counters() const {
  TransportCounters c;
  c.packets_sent = sent_.load(std::memory_order_relaxed);
  c.packets_dropped = dropped_.load(std::memory_order_relaxed);
  c.packets_overflowed = overflowed_.load(std::memory_order_relaxed);
  c.packets_to_closed_ports = to_closed_.load(std::memory_order_relaxed);
  c.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  c.packets_truncated = truncated_.load(std::memory_order_relaxed);
  return c;
}

std::vector<std::pair<uint16_t, int>> RealUdpTransport::bound_fds() const {
  std::vector<std::pair<uint16_t, int>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(ports_.size());
  for (const auto& [port, sock] : ports_) out.emplace_back(port, sock->fd());
  return out;
}

void RealUdpTransport::learn_route(uint16_t port, const sockaddr_in& addr) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[port] = addr;
}

bool RealUdpTransport::lookup_route(uint16_t port, sockaddr_in& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = routes_.find(port);
  if (it == routes_.end()) return false;
  out = it->second;
  return true;
}

void RealUdpTransport::unregister(uint16_t port, RealSocket* sock) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ports_.find(port);
  if (it != ports_.end() && it->second == sock) ports_.erase(it);
}

}  // namespace qserv::net
