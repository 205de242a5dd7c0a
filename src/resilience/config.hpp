// Knobs for the overload-protection and self-healing subsystem
// (src/resilience/): receive-phase backpressure, connect-time admission
// control, the adaptive degradation governor, and the worker watchdog.
// Kept in its own header (a POD with no dependencies beyond vt::Duration)
// so core/config.hpp can embed it without pulling in the mechanisms.
#pragma once

#include <cstddef>

#include "src/vthread/time.hpp"

namespace qserv::resilience {

// The degradation ladder, mildest remedy first. The governor holds a
// current level; every rung at or below the level is active. Each rung
// trades a little fidelity for frame time, so overload produces bounded
// degradation instead of the paper's §5.2 response-rate cliff.
enum DegradeLevel : int {
  kNormal = 0,
  // Far entities (beyond half the interest range) are refreshed every
  // other snapshot, halving the quadratic interest/visibility reply cost
  // for the entities clients notice least.
  kThinFarEntities = 1,
  // Multiple moves queued by one client within a frame collapse into the
  // newest one: the client still gets its ack and snapshot, but the
  // server executes (and charges) one move, not the backlog.
  kCoalesceMoves = 2,
  // Shed non-essential frame work: the invariant-checker audit and the
  // §5.2 frame-trace append are skipped while this rung is active.
  kShedDebugWork = 3,
  // Last resort: evict the most expensive client (most moves executed
  // since the previous scan) with kServerBusy, at most one per
  // kEvictInterval.
  kEvictExpensive = 4,
};

const char* degrade_level_name(int level);

// Datagrams with payloads larger than this are dropped before any parse
// work (flood/oversize clamp). The legitimate protocol's largest client
// message is a connect (~40 bytes), so the bound is generous.
inline constexpr size_t kMaxPacketBytes = 1400;

// Admission control refuses connects while the rolling p95 frame time
// exceeds kAdmissionRatio * tick_budget.
inline constexpr double kAdmissionRatio = 1.25;

// The governor steps the ladder down when p95 exceeds
// kEnterRatio * tick_budget and back up when it falls below
// kExitRatio * tick_budget (hysteresis).
inline constexpr double kEnterRatio = 1.0;
inline constexpr double kExitRatio = 0.6;

// Pace of the kEvictExpensive rung: at most one eviction per interval.
inline constexpr vt::Duration kEvictInterval = vt::millis(250);

struct Config {
  // --- receive-phase backpressure ---
  // Sustained per-client move budget, moves/second; bursts of up to
  // move_burst above it are tolerated (token bucket). Moves beyond the
  // budget are dropped before execution (the netchan resend model makes
  // this safe: state is retransmitted every frame). 0 disables.
  double move_rate_limit = 0.0;
  double move_burst = 10.0;

  // --- connect-time admission control ---
  // When enabled, new connects are refused with kServerBusy while the
  // rolling p95 frame time exceeds kAdmissionRatio * tick_budget —
  // serving the admitted population well beats admitting players the
  // frame loop cannot simulate. Duplicate connects (re-acks) always pass.
  bool admission_control = false;

  // --- adaptive degradation governor ---
  // The governor watches a rolling window of frame durations and steps
  // the degradation ladder down when p95 exceeds kEnterRatio*tick_budget,
  // back up when it falls below kExitRatio*tick_budget (hysteresis), with
  // at least `dwell` frames between steps.
  bool governor = false;
  // Target frame duration: the server tick the clients' send rate implies
  // (~30 Hz clients => ~33 ms). Shared by governor and admission control.
  vt::Duration tick_budget = vt::millis(33);
  int window = 32;  // rolling frame-duration window (frames)
  int dwell = 16;   // minimum frames between ladder steps
  int max_level = kEvictExpensive;

  // --- worker watchdog ---
  // A worker whose heartbeat is older than this is declared stalled: its
  // clients are reassigned to live workers and the stall is counted and
  // traced. Should comfortably exceed an idle worker's 50 ms select()
  // timeout (core::Server::kSelectTimeout) plus the worst healthy frame
  // time. 0 disables.
  vt::Duration watchdog_timeout{};
};

}  // namespace qserv::resilience
