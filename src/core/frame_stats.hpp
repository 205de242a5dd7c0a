// Execution-time breakdowns and lock-analysis counters — the paper's
// measurement methodology (§4). Every server thread owns a ThreadStats;
// the harness aggregates them into the percentages Figures 4-7 plot.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/util/histogram.hpp"
#include "src/vthread/time.hpp"

namespace qserv::obs {
class HistogramMetric;
class Tracer;
}

namespace qserv::vt {
class Platform;
}

namespace qserv::core {

// The components of total execution time, matching §4's definitions.
// Named fields, so callers read `b.exec`; generic code walks kComponents.
struct Breakdown {
  vt::Duration exec{};        // request execution (move processing)
  vt::Duration lock_leaf{};   // waiting for leaf (region) locks
  vt::Duration lock_parent{}; // waiting for parent/list locks
  vt::Duration receive{};     // receiving + parsing requests
  vt::Duration reply{};       // forming and sending replies
  vt::Duration world{};       // world physics update (master only)
  vt::Duration intra_wait{};  // barrier before the reply phase
  vt::Duration inter_wait_world{};  // waiting for the world update
  vt::Duration inter_wait_frame{};  // waiting for the prior frame to end
  vt::Duration idle{};        // blocked in select with no work

  vt::Duration lock() const { return lock_leaf + lock_parent; }
  vt::Duration inter_wait() const {
    return inter_wait_world + inter_wait_frame;
  }
  vt::Duration total() const;
  // Total excluding idle (the paper's "non-idle" denominator for §5.2).
  vt::Duration busy() const { return total() - idle; }

  Breakdown& operator+=(const Breakdown& o);
};

// Percentage view of a breakdown (each component as a fraction of total).
struct BreakdownPct {
  double exec = 0, lock_leaf = 0, lock_parent = 0, receive = 0, reply = 0,
         world = 0, intra_wait = 0, inter_wait_world = 0, inter_wait_frame = 0,
         idle = 0;
  double lock() const { return lock_leaf + lock_parent; }
  double inter_wait() const { return inter_wait_world + inter_wait_frame; }
};

// One §4 component, indexing kComponents.
enum class Phase : uint8_t {
  kExec, kLockLeaf, kLockParent, kReceive, kReply, kWorld, kIntraWait,
  kInterWaitWorld, kInterWaitFrame, kIdle
};

// The one table of components: the key in the bench export's
// breakdown_ms / breakdown_pct objects (in this order), the trace span
// name, and the matching Breakdown and BreakdownPct fields.
struct Component {
  const char* key;
  const char* span;
  vt::Duration Breakdown::*ms;
  double BreakdownPct::*pct;
};
inline constexpr Component kComponents[] = {
    {"exec", "exec", &Breakdown::exec, &BreakdownPct::exec},
    {"lock_leaf", "lock-leaf", &Breakdown::lock_leaf, &BreakdownPct::lock_leaf},
    {"lock_parent", "lock-parent", &Breakdown::lock_parent,
     &BreakdownPct::lock_parent},
    {"receive", "receive", &Breakdown::receive, &BreakdownPct::receive},
    {"reply", "reply", &Breakdown::reply, &BreakdownPct::reply},
    {"world", "world", &Breakdown::world, &BreakdownPct::world},
    {"intra_wait", "intra-wait", &Breakdown::intra_wait,
     &BreakdownPct::intra_wait},
    {"inter_wait_world", "inter-wait-world", &Breakdown::inter_wait_world,
     &BreakdownPct::inter_wait_world},
    {"inter_wait_frame", "inter-wait-frame", &Breakdown::inter_wait_frame,
     &BreakdownPct::inter_wait_frame},
    {"idle", "idle", &Breakdown::idle, &BreakdownPct::idle},
};
static_assert(std::size(kComponents) ==
              static_cast<size_t>(Phase::kIdle) + 1);

class PhaseScope;

// Per-request and per-frame lock statistics (Figure 7, §5.1).
struct LockStats {
  uint64_t requests_locked = 0;       // requests that acquired any region
  uint64_t lock_requests = 0;         // leaf lock requests incl. re-locks
  uint64_t distinct_leaves = 0;       // sum over requests of distinct leaves
  uint64_t relocks = 0;               // lock requests on already-held leaves
  uint64_t parent_list_locks = 0;     // node-list lock operations

  LockStats& operator+=(const LockStats& o);
};

struct ThreadStats {
  Breakdown breakdown;
  LockStats locks;
  uint64_t frames_participated = 0;
  uint64_t frames_as_master = 0;
  uint64_t requests_processed = 0;
  uint64_t replies_sent = 0;
  uint64_t connects = 0;
  // Overload-protection counters (src/resilience/): moves dropped by the
  // per-client token bucket, datagrams dropped by the oversize clamp, and
  // moves folded into an earlier same-frame move by the governor's
  // coalescing rung.
  uint64_t moves_rate_limited = 0;
  uint64_t packets_oversized = 0;
  uint64_t moves_coalesced = 0;
  // Requests handled per frame participated in (§5.2 imbalance analysis).
  StatAccumulator requests_per_frame;
  // Per-frame trace (frame id, moves processed); only filled while the
  // server's frame trace is enabled. Used for the paper's §5.2 dynamic
  // thread-imbalance measurement. Capped at ServerConfig::frame_trace_limit
  // entries; overflow increments frame_trace_dropped instead of growing.
  std::vector<std::pair<uint64_t, int>> frame_trace;
  uint64_t frame_trace_dropped = 0;

  // Event-tracer attachment (obs/trace.hpp): when non-null, the owning
  // thread emits phase spans onto `trace_track`. Preserved across reset()
  // so the warmup boundary does not detach tracing.
  obs::Tracer* tracer = nullptr;
  int trace_track = -1;
  // Innermost PhaseScope open on the owning thread; also preserved across
  // reset(), so a scope open at the warmup boundary still closes cleanly.
  PhaseScope* open_scope = nullptr;

  void reset();
};

// Frame-scoped lock sharing statistics collected by the lock manager and
// harvested by the master each frame (Figure 7(c) and §5.1 text).
struct FrameLockStats {
  StatAccumulator leaves_locked_pct;      // % of leaves locked per frame
  StatAccumulator leaves_shared_pct;      // % locked by >= 2 threads
  StatAccumulator lock_ops_per_leaf;      // lock operations per leaf
  uint64_t frames = 0;

  void reset();
};

BreakdownPct to_percent(const Breakdown& b);

// Times one phase on the calling thread, from construction to
// destruction, and charges its *exclusive* time to the phase's Breakdown
// component: a scope opened inside it (a list lock inside exec) is
// subtracted from it, so every interval is charged to exactly one
// component. With the thread's tracer enabled it records the span
// (inclusive, from the same two clock reads) when it lasted longer than
// zero, and it feeds `wait_us` (a lock-wait histogram) when given.
class PhaseScope {
 public:
  PhaseScope(vt::Platform& platform, ThreadStats& st, Phase phase,
             int64_t frame = -1, obs::HistogramMetric* wait_us = nullptr);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  vt::TimePoint start() const { return t0_; }

 private:
  vt::Platform& platform_;
  ThreadStats& st_;
  PhaseScope* const parent_;
  const Phase phase_;
  const int64_t frame_;
  obs::HistogramMetric* const wait_us_;
  vt::TimePoint t0_;
  vt::Duration children_{};  // inclusive time of the scopes nested in this
};

// One row per component, formatted for bench output.
std::string format_breakdown(const Breakdown& b);

}  // namespace qserv::core
