// Wire protocol between clients and the game server, modelled on the
// QuakeWorld protocol at the granularity this study needs: connect /
// move / disconnect requests, and snapshot replies carrying the player
// state, visible entities, and global game events.
//
// Every message is one datagram body (after the netchan header). The first
// byte is the message type.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/net/bytestream.hpp"
#include "src/util/vec.hpp"
#include "src/vthread/time.hpp"

namespace qserv::net {

enum class ClientMsgType : uint8_t { kConnect = 1, kMove = 2, kDisconnect = 3 };
enum class ServerMsgType : uint8_t {
  kConnectAck = 64,
  kSnapshot = 65,       // full entity state
  kDeltaSnapshot = 66,  // changes against an acked baseline snapshot
  kReject = 67,         // connection refused / terminated, with a reason
};

// Why the server refused or terminated a client (RejectMsg::reason).
enum class RejectReason : uint8_t {
  kServerFull = 1,  // no free client slot; stop retrying the connect
  kEvicted = 2,     // reaped after client_timeout of silence; re-connect
  kServerBusy = 3,  // admission control / load shedding; back off, retry
};

// Field-change bits in a delta-encoded entity update.
inline constexpr uint8_t kDeltaOrigin = 1;
inline constexpr uint8_t kDeltaYaw = 2;
inline constexpr uint8_t kDeltaState = 4;
inline constexpr uint8_t kDeltaType = 8;
inline constexpr uint8_t kDeltaAll =
    kDeltaOrigin | kDeltaYaw | kDeltaState | kDeltaType;

// Button bits in MoveCmd::buttons.
inline constexpr uint8_t kButtonAttack = 1;  // fire current weapon
inline constexpr uint8_t kButtonJump = 2;
inline constexpr uint8_t kButtonThrow = 4;   // long-range projectile throw

// Parse-time sanity caps (overload/abuse hardening; decode() rejects
// messages exceeding them). Real clients sit far below both.
inline constexpr size_t kMaxPlayerNameLen = 32;
inline constexpr uint16_t kMaxMoveMsec = 250;  // QuakeWorld's byte-msec cap

struct ConnectMsg {
  std::string name;
};

// The move command (§2.3 of the paper): view angles, motion indicators,
// action flags, and the duration the command applies for.
struct MoveCmd {
  uint32_t sequence = 0;       // client's command sequence number
  int64_t client_time_ns = 0;  // echoed in the reply; measures response time
  // The server_frame of the newest snapshot this client has fully
  // reconstructed — the only baseline the server may delta against
  // (QuakeWorld-style; loss-safe because unreconstructed frames are
  // never advertised). 0 = request a full snapshot.
  uint32_t baseline_frame = 0;
  uint16_t msec = 30;          // how long the command applies
  float yaw_deg = 0.0f;
  float pitch_deg = 0.0f;
  float forward = 0.0f;  // forward speed request, units/s
  float side = 0.0f;
  float up = 0.0f;
  uint8_t buttons = 0;
};

// Tells a client its fate explicitly instead of silently dropping it:
// sent in response to a connect when the server is full, and as a
// parting shot when a timed-out client is reaped.
struct RejectMsg {
  RejectReason reason = RejectReason::kServerFull;
};

struct ConnectAck {
  uint32_t player_id = 0;
  uint32_t server_frame = 0;
  // The server port this client must address from now on. Usually the
  // port the connect was sent to; under region-based assignment the
  // server may direct the client to a different thread's port.
  uint16_t assigned_port = 0;
  Vec3 spawn_origin;
};

// One visible entity inside a snapshot.
struct EntityUpdate {
  uint32_t id = 0;
  uint8_t type = 0;  // sim::EntityType
  Vec3 origin;
  float yaw_deg = 0.0f;
  uint8_t state = 0;  // type-specific (item available, player crouched, ...)
};

// One global game event (frag, item pickup, sound, ...) from the global
// state buffer; broadcast to every client.
struct GameEvent {
  uint8_t kind = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  Vec3 pos;
};

// Wire bytes of one GameEvent record: kind, a, b, pos.
inline constexpr size_t kGameEventWireBytes = 1 + 4 + 4 + 12;

// `count` event records in wire form, back to back: a snapshot's event
// section without its u16 count. The server encodes each event once into
// its event log and copies each reply's events from there as one span.
struct EventSpan {
  const uint8_t* data = nullptr;
  size_t count = 0;
  size_t bytes() const { return count * kGameEventWireBytes; }
};

struct Snapshot {
  uint32_t server_frame = 0;
  uint32_t ack_sequence = 0;       // latest move sequence processed
  int64_t client_time_echo_ns = 0; // client_time_ns of that move
  // Non-zero when the server has reassigned this client to another
  // thread's port (dynamic assignment); the client must re-target.
  uint16_t assigned_port = 0;
  // Delta snapshots only: the server_frame of the (client-acknowledged)
  // snapshot this one is encoded against. 0 in full snapshots.
  uint32_t baseline_frame = 0;
  // Private player state.
  Vec3 origin;
  Vec3 velocity;
  int16_t health = 0;
  int16_t armor = 0;
  int16_t frags = 0;
  std::vector<EntityUpdate> entities;
  std::vector<GameEvent> events;
};

// --- encoding ---
std::vector<uint8_t> encode(const ConnectMsg& m);
std::vector<uint8_t> encode(const MoveCmd& m);
std::vector<uint8_t> encode_disconnect();
std::vector<uint8_t> encode(const RejectMsg& m);
std::vector<uint8_t> encode(const ConnectAck& m);
std::vector<uint8_t> encode(const Snapshot& m);
// One event record (kGameEventWireBytes).
void write_event(ByteWriter& w, const GameEvent& e);

// Reconstructs a full snapshot from a delta. `baseline_lookup` maps a
// server_frame to the entity list of the snapshot the client
// reconstructed for that frame (nullptr if unknown — decoding then fails
// and the caller waits for a full snapshot). Returns false on malformed
// input or a missing baseline.
using BaselineLookup =
    std::function<const std::vector<EntityUpdate>*(uint32_t frame)>;
bool decode_delta(ByteReader& r, const BaselineLookup& baseline_lookup,
                  Snapshot& out);

// --- decoding ---
// Each returns false on a malformed buffer (wrong type byte or short read).
bool decode_client_type(ByteReader& r, ClientMsgType& type);
bool decode(ByteReader& r, ConnectMsg& m);
bool decode(ByteReader& r, MoveCmd& m);
bool decode_server_type(ByteReader& r, ServerMsgType& type);
bool decode(ByteReader& r, RejectMsg& m);
bool decode(ByteReader& r, ConnectAck& m);
bool decode(ByteReader& r, Snapshot& m);
// A snapshot's event section: a u16 count, then that many records.
bool decode_events(ByteReader& r, std::vector<GameEvent>& events);

}  // namespace qserv::net
