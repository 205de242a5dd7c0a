// Low-overhead per-thread event tracer (the paper's §4 measurement
// methodology, upgraded from aggregate totals to an event-level timeline).
//
// Each server thread owns a *track*: a fixed-capacity ring buffer of
// completed spans (name, start, duration). Emission is wait-free — a
// track has exactly one writer, so recording is two loads, a bump of a
// plain index, and a struct store; there is no locking anywhere on the
// hot path. The only shared state is the `enabled_` flag (one relaxed
// atomic load per span — all the hot path pays when tracing is off).
// When the ring wraps, the oldest spans are overwritten and a per-track
// dropped counter keeps the loss visible.
//
// Fleet mode (PR 7): one Tracer spans a whole multi-shard process. Each
// track carries a Chrome *pid* so every shard engine renders as its own
// process group in one merged export; tracks can be registered while
// other tracks are recording (a supervisor-rebuilt engine registers fresh
// tracks mid-run), so registration takes a mutex and publishes the new
// count with a release store — the record path stays lock-free because
// the track array is pre-reserved to `max_tracks` and never reallocates.
// Besides spans there are instant events (supervisor state transitions)
// and flow-annotated spans: a span may carry a flow id + direction, and
// the export emits Chrome "s"/"f" flow events bound to that span so a
// session handoff renders as an arrow connecting two shards' timelines.
//
// Export produces Chrome trace-event JSON ("traceEvents" with complete
// "X" events), loadable in chrome://tracing or https://ui.perfetto.dev —
// one row per server thread, spans nested by time containment, so a whole
// frame pipeline (world, receive, exec, lock waits, barriers, reply) is
// visible per thread on a timeline.
//
// Time source: vt::Platform::now(), i.e. virtual time under SimPlatform
// (deterministic, unperturbed by tracing — recording charges no modelled
// compute) and wall time under RealPlatform. The server's phase spans
// come from core::PhaseScope (core/frame_stats.hpp), which records each
// span from the same two clock reads it charges to the §4 breakdown.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/vthread/platform.hpp"

namespace qserv::obs {

// One completed event. `name` must be a string literal or a pointer
// returned by Tracer::intern() (anything outliving the tracer works);
// storing the pointer keeps recording allocation-free.
struct TraceEvent {
  enum class Kind : uint8_t { kSpan = 0, kInstant = 1 };

  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t frame = -1;  // optional frame id, -1 = none (emitted as args)
  uint64_t flow = 0;   // flow id, 0 = none
  Kind kind = Kind::kSpan;
  int8_t flow_dir = 0;  // +1 = flow starts here, -1 = flow terminates here
};

class Tracer {
 public:
  struct Config {
    size_t capacity_per_track = 1 << 16;  // spans kept per track (ring)
    // Upper bound on tracks ever registered. The track table is reserved
    // to this once, so registering a track mid-run (shard rebuild) never
    // reallocates under a concurrent recorder.
    size_t max_tracks = 256;
    bool enabled = true;
  };

  // A tracer may be constructed unbound (no platform): the harness binds
  // it to the server's platform when observability is attached, so bench
  // mains can own a tracer without ever seeing the SimPlatform inside
  // run_experiment(). now_ns() reports 0 until bound.
  Tracer();
  explicit Tracer(Config cfg);
  explicit Tracer(vt::Platform& platform);
  Tracer(vt::Platform& platform, Config cfg);

  void bind(vt::Platform& platform) { platform_ = &platform; }
  bool bound() const { return platform_ != nullptr; }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Registers a timeline row under Chrome process `pid`. Safe to call
  // while other tracks are recording; the returned track id is written
  // by exactly one thread at a time.
  int make_track(std::string name, int pid = 1);
  int track_count() const {
    return static_cast<int>(track_count_.load(std::memory_order_acquire));
  }

  // Names the Chrome process group `pid` in the export ("shard-2", ...).
  void set_process_name(int pid, std::string name);

  // Copies `s` into tracer-owned storage and returns a pointer valid for
  // the tracer's lifetime — for event names built at runtime (SLO names,
  // shard labels) that can't be string literals.
  const char* intern(const std::string& s);

  // Runtime switch, checked once per span.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  int64_t now_ns() const {
    return platform_ != nullptr ? platform_->now().ns : 0;
  }

  // Records one completed span on `track`. Single-writer per track.
  void record(int track, const char* name, int64_t start_ns, int64_t dur_ns,
              int64_t frame = -1);
  // Instant event ("i" in the export) at now_ns(), e.g. a supervisor
  // state transition. Same single-writer-per-track rule as record().
  void record_instant(int track, const char* name, int64_t frame = -1);
  // Span carrying one end of a flow: `outgoing` starts flow `flow` at the
  // span's begin timestamp, else the flow terminates here. The export
  // emits the span plus the matching Chrome "s"/"f" flow event.
  void record_flow_span(int track, const char* name, int64_t start_ns,
                        int64_t dur_ns, int64_t frame, uint64_t flow,
                        bool outgoing);

  // --- post-run inspection / export (call after writers have stopped) ---
  // Events recorded on `track`, oldest first (at most capacity_per_track).
  std::vector<TraceEvent> events(int track) const;
  // Events overwritten by ring wrap on `track`.
  uint64_t dropped(int track) const;
  uint64_t total_recorded() const;  // across tracks, including overwritten
  const std::string& track_name(int track) const;
  int track_pid(int track) const;

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string export_chrome_trace() const;
  // Writes export_chrome_trace() to `path`; returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Track {
    std::string name;
    int pid = 1;
    std::vector<TraceEvent> ring;  // sized capacity once, never resized
    uint64_t written = 0;          // total events ever recorded
  };

  Track& track(int id) { return *tracks_[static_cast<size_t>(id)]; }
  const Track& track(int id) const {
    return *tracks_[static_cast<size_t>(id)];
  }

  vt::Platform* platform_ = nullptr;
  Config cfg_;
  std::atomic<bool> enabled_;
  // Registration (cold) is serialized by `registry_mu_`; the count is
  // published with release so a recorder that learned a track id through
  // any means sees the fully constructed Track. Recording never locks.
  mutable std::mutex registry_mu_;
  std::atomic<size_t> track_count_{0};
  std::vector<std::unique_ptr<Track>> tracks_;
  std::vector<std::pair<int, std::string>> process_names_;
  std::deque<std::string> interned_;
};

// RAII span: opens at construction, records at destruction. Cost when
// `tracer` is null or disabled: one branch, nothing recorded. Server
// phases use core::PhaseScope; this bare span is the unit whose cost
// bench_obs_overhead gates.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, int track, const char* name, int64_t frame = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        track_(track),
        name_(name),
        frame_(frame) {
    if (tracer_ != nullptr) start_ns_ = tracer_->now_ns();
  }
  ~TraceScope() {
    if (tracer_ != nullptr)
      tracer_->record(track_, name_, start_ns_,
                      tracer_->now_ns() - start_ns_, frame_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_;
  int track_;
  const char* name_;
  int64_t frame_;
  int64_t start_ns_ = 0;
};

}  // namespace qserv::obs
