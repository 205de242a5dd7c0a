// Quake-style network channel: a thin sequencing layer over the datagram
// socket. Each packet carries an outgoing sequence number and the latest
// sequence seen from the peer, which lets both ends detect drops,
// duplicates and reordering without retransmission (the game resends
// state every frame anyway).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/bytestream.hpp"
#include "src/net/transport.hpp"

namespace qserv::net {

class NetChannel {
 public:
  // `sock` must outlive the channel; `remote` is the peer's port.
  NetChannel(Socket& sock, uint16_t remote);

  // Channel header size: outgoing sequence + latest-seen peer sequence.
  // Buffers passed to send_in_place must reserve this much headroom.
  static constexpr size_t kHeaderReserve = 8;

  // Sends `body` framed with the channel header.
  bool send(std::vector<uint8_t> body);

  // Zero-copy variant: `frame` points at kHeaderReserve writable headroom
  // bytes followed by `body_len` message bytes (a reused wire buffer).
  // Stamps the header into the headroom and sends the whole span without
  // assembling an intermediate vector.
  bool send_in_place(uint8_t* frame, size_t body_len);

  // Result of accepting one incoming datagram.
  struct Incoming {
    uint32_t sequence = 0;       // peer's sequence for this packet
    uint32_t acked = 0;          // latest of our sequences the peer saw
    uint32_t dropped_before = 0; // gap detected before this packet
    bool duplicate_or_old = false;
  };

  // Parses the channel header from `d.payload`. Returns false on a
  // malformed header. On success `body_out` views the remaining bytes
  // (pointing into d.payload — the datagram must stay alive).
  bool accept(const Datagram& d, Incoming& info, ByteReader& body_out);

  // Migrates the channel to a different local socket, preserving all
  // sequencing state — used when a client is reassigned to another server
  // thread (dynamic assignment) so the peer sees a continuous stream.
  void rebind(Socket& sock) { sock_ = &sock; }
  // Re-targets the peer port, preserving sequencing state (the peer's
  // channel object is the same one on the other side).
  void set_remote(uint16_t remote) { remote_ = remote; }
  // Restores sequencing state from a checkpoint so a warm-restarted server
  // continues a surviving peer's packet stream without a handshake.
  void restore_state(uint32_t out_seq, uint32_t in_seq, uint32_t in_acked) {
    out_seq_ = out_seq;
    in_seq_ = in_seq;
    in_acked_ = in_acked;
  }

  uint16_t remote() const { return remote_; }
  uint32_t out_sequence() const { return out_seq_; }
  uint32_t in_sequence() const { return in_seq_; }
  // Highest of OUR outgoing sequences the peer has acknowledged seeing —
  // the anchor for delta-snapshot baselines.
  uint32_t peer_acked() const { return in_acked_; }
  uint64_t packets_sent() const { return sent_; }
  uint64_t packets_accepted() const { return accepted_; }
  uint64_t drops_detected() const { return drops_; }
  uint64_t duplicates_rejected() const { return dups_; }

 private:
  Socket* sock_;
  uint16_t remote_;
  uint32_t out_seq_ = 0;
  uint32_t in_seq_ = 0;   // highest sequence accepted from the peer
  uint32_t in_acked_ = 0; // highest of our sequences the peer acked
  uint64_t sent_ = 0;
  uint64_t accepted_ = 0;
  uint64_t drops_ = 0;
  uint64_t dups_ = 0;
};

}  // namespace qserv::net
