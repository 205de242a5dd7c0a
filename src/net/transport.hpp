// The transport seam: abstract datagram sockets and select(2)-style
// waiting, factored out of the virtual network so the same server,
// client and netchan code runs over either an in-process modelled
// segment (net::VirtualNetwork, virtual_udp.hpp) or real kernel UDP
// sockets (net::RealUdpTransport, real_udp.hpp). The shapes here are
// exactly the ones virtual_udp.hpp always had — Datagram, Socket,
// Selector — so the ~40 existing call sites compile unchanged; only
// socket/selector *construction* goes through the Transport factory.
//
// Addressing model: a peer is identified by its 16-bit UDP port, the
// paper's private-port design (every client sends from its own port and
// every server thread listens on its own port, all on one segment). The
// real transport maps ports onto loopback/LAN sockaddrs it learns from
// received traffic; the virtual transport routes by port directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/vthread/platform.hpp"

namespace qserv::net {

class FaultScheduler;

struct Datagram {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::vector<uint8_t> payload;
  vt::TimePoint sent_at{};
  vt::TimePoint deliver_at{};
};

// Why try_open() refused to bind. Surfaced as a value (not an assert) so
// callers that race for ports — a churning client reopening its socket,
// a test probing collision behavior — can retry on a different port.
enum class OpenError : uint8_t {
  kNone = 0,
  kPortInUse,  // another live socket owns this port
  kSysError,   // real transport only: socket()/bind() failed
};

// A bound datagram socket. Thread-safe: send and receive may race with
// delivery (virtual) or run on different threads than the opener (real).
class Socket {
 public:
  virtual ~Socket() = default;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  virtual uint16_t port() const = 0;

  // Sends `payload` to the peer on `dst`. Returns false if the packet
  // was dropped on the send side (loss model, closed destination port,
  // EMSGSIZE/EAGAIN on a real socket); like UDP, senders normally cannot
  // tell — the return value exists for tests.
  virtual bool send(uint16_t dst, std::vector<uint8_t> payload) = 0;

  // Span variant of send() for callers whose payload lives in an arena
  // (the reply phase's wire buffers): no owning vector required at the
  // call site. The base implementation materializes one — correct for
  // the virtual transport, which must own the bytes until the modelled
  // delivery time anyway; the real transport overrides it with a direct
  // sendto(2), making the path copy-free end to end. Same return
  // semantics and TransportCounters accounting as send().
  virtual bool send_span(uint16_t dst, const uint8_t* data, size_t len) {
    return send(dst, std::vector<uint8_t>(data, data + len));
  }

  // Non-blocking receive of the next ready datagram.
  virtual bool try_recv(Datagram& out) = 0;

  // Earliest delivery time among queued datagrams; TimePoint::max() if
  // none. "Ready" means next_ready() <= now. The real transport cannot
  // see the future, so for it this is now() or max().
  virtual vt::TimePoint next_ready() const = 0;
  virtual bool has_ready() const = 0;

  // Datagrams queued (ready or in flight). The real transport reports
  // what one kernel-buffer peek can see (0 or 1), not an exact count.
  virtual size_t queued() const = 0;

  virtual uint64_t received_count() const = 0;

 protected:
  Socket() = default;
};

// select(2) emulation over a fixed set of sockets. One selector per
// waiting thread; a socket belongs to at most one selector. Sockets and
// selectors must come from the same Transport.
class Selector {
 public:
  virtual ~Selector() = default;
  Selector(const Selector&) = delete;
  Selector& operator=(const Selector&) = delete;

  // Registers a socket; must happen before any wait.
  virtual void add(Socket& s) = 0;

  // Unregisters a socket so it can be destroyed before the selector —
  // used when a churning client reopens its socket on a fresh port.
  virtual void remove(Socket& s) = 0;

  // Blocks until any registered socket has a ready datagram or the
  // deadline passes. Returns true if a datagram is ready. Also returns
  // (false) when poke() is called, so shutdown can interrupt a wait.
  virtual bool wait_until(vt::TimePoint deadline) = 0;

  // Wakes a blocked wait_until() immediately.
  virtual void poke() = 0;

 protected:
  Selector() = default;
};

// Cumulative transport-level counters, identical across transports so
// the qserv-bench-v1 network block is populated the same way on both.
// Racy reads are fine — reporting only.
struct TransportCounters {
  uint64_t packets_sent = 0;
  // Send-side drops: the virtual loss model / fault episodes, or a real
  // sendto() failing with EMSGSIZE/EAGAIN/ENOBUFS.
  uint64_t packets_dropped = 0;
  // Receive-buffer overflow at the destination: virtual socket_buffer
  // overruns, or the kernel's SO_RXQ_OVFL drop count on a real socket.
  uint64_t packets_overflowed = 0;
  uint64_t packets_to_closed_ports = 0;
  uint64_t bytes_sent = 0;
  // Oversized datagrams clamped at recvfrom (MSG_TRUNC); always 0 on the
  // virtual transport, which never truncates.
  uint64_t packets_truncated = 0;
};

// Factory + counter surface shared by the virtual and real transports.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Opens a socket bound to `port`; null (with *err set when non-null)
  // if the port is taken. Sockets must not outlive the transport.
  virtual std::unique_ptr<Socket> try_open(uint16_t port,
                                           OpenError* err = nullptr) = 0;

  // Legacy hard-checked open: aborts on failure. Convenience for the
  // many callers whose port plan cannot collide (server base ports, the
  // initial client block).
  std::unique_ptr<Socket> open(uint16_t port);

  virtual std::unique_ptr<Selector> make_selector() = 0;

  virtual vt::Platform& platform() = 0;

  // The fault-injection timeline; null unless this transport models
  // faults (only the virtual network does). The parallel server's
  // thread-stall injection consults this each loop.
  virtual const FaultScheduler* faults_or_null() const { return nullptr; }

  virtual TransportCounters counters() const = 0;

 protected:
  Transport() = default;
};

}  // namespace qserv::net
