#include "src/obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "src/obs/json.hpp"
#include "src/util/check.hpp"

namespace qserv::obs {

Tracer::Tracer() : Tracer(Config()) {}

Tracer::Tracer(Config cfg) : cfg_(cfg), enabled_(cfg.enabled) {
  QSERV_CHECK(cfg_.capacity_per_track > 0);
  // Reserved once: record() indexes this vector without a lock, so it
  // must never reallocate while tracks are being registered mid-run.
  tracks_.reserve(kMaxTracks);
}

Tracer::Tracer(vt::Platform& platform) : Tracer(Config()) {
  platform_ = &platform;
}

Tracer::Tracer(vt::Platform& platform, Config cfg) : Tracer(cfg) {
  platform_ = &platform;
}

int Tracer::make_track(std::string name, int pid) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  QSERV_CHECK(tracks_.size() < kMaxTracks);
  auto t = std::make_unique<Track>();
  t->name = std::move(name);
  t->pid = pid;
  t->ring.resize(cfg_.capacity_per_track);
  tracks_.push_back(std::move(t));
  const size_t count = tracks_.size();
  track_count_.store(count, std::memory_order_release);
  return static_cast<int>(count) - 1;
}

void Tracer::set_process_name(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& [known_pid, known_name] : process_names_) {
    if (known_pid == pid) {
      known_name = std::move(name);
      return;
    }
  }
  process_names_.emplace_back(pid, std::move(name));
}

const char* Tracer::intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& known : interned_)
    if (known == s) return known.c_str();
  interned_.push_back(s);
  return interned_.back().c_str();
}

void Tracer::record(int track, const char* name, int64_t start_ns,
                    int64_t dur_ns, int64_t frame) {
  Track& t = this->track(track);
  TraceEvent& slot = t.ring[t.written % t.ring.size()];
  slot.name = name;
  slot.start_ns = start_ns;
  slot.dur_ns = dur_ns;
  slot.frame = frame;
  slot.flow = 0;
  slot.kind = TraceEvent::Kind::kSpan;
  slot.flow_dir = 0;
  ++t.written;
}

void Tracer::record_instant(int track, const char* name, int64_t frame) {
  Track& t = this->track(track);
  TraceEvent& slot = t.ring[t.written % t.ring.size()];
  slot.name = name;
  slot.start_ns = now_ns();
  slot.dur_ns = 0;
  slot.frame = frame;
  slot.flow = 0;
  slot.kind = TraceEvent::Kind::kInstant;
  slot.flow_dir = 0;
  ++t.written;
}

void Tracer::record_flow_span(int track, const char* name, int64_t start_ns,
                              int64_t dur_ns, int64_t frame, uint64_t flow,
                              bool outgoing) {
  Track& t = this->track(track);
  TraceEvent& slot = t.ring[t.written % t.ring.size()];
  slot.name = name;
  slot.start_ns = start_ns;
  slot.dur_ns = dur_ns;
  slot.frame = frame;
  slot.flow = flow;
  slot.kind = TraceEvent::Kind::kSpan;
  slot.flow_dir = outgoing ? 1 : -1;
  ++t.written;
}

std::vector<TraceEvent> Tracer::events(int track) const {
  const Track& t = this->track(track);
  const size_t cap = t.ring.size();
  const size_t n = std::min<uint64_t>(t.written, cap);
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest surviving span first: the ring index where the next write
  // would land is also where the oldest entry lives once wrapped.
  const size_t start = t.written > cap ? t.written % cap : 0;
  for (size_t i = 0; i < n; ++i) out.push_back(t.ring[(start + i) % cap]);
  return out;
}

uint64_t Tracer::dropped(int track) const {
  const Track& t = this->track(track);
  return t.written > t.ring.size() ? t.written - t.ring.size() : 0;
}

uint64_t Tracer::total_recorded() const {
  const int n = track_count();
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) total += track(i).written;
  return total;
}

const std::string& Tracer::track_name(int track) const {
  return this->track(track).name;
}

int Tracer::track_pid(int track) const { return this->track(track).pid; }

std::string Tracer::export_chrome_trace() const {
  const int n = track_count();
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Metadata: one process_name row per distinct pid, one named thread
  // row per track. Unnamed pids fall back to "qserv".
  std::vector<std::pair<int, std::string>> pids;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    pids = process_names_;
  }
  for (int i = 0; i < n; ++i) {
    const int pid = track(i).pid;
    bool known = false;
    for (const auto& [known_pid, unused] : pids) known |= known_pid == pid;
    if (!known) pids.emplace_back(pid, "qserv");
  }
  for (const auto& [pid, name] : pids) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", static_cast<int64_t>(pid));
    w.kv("tid", int64_t{0});
    w.key("args");
    w.begin_object();
    w.kv("name", name);
    w.end_object();
    w.end_object();
  }
  for (int i = 0; i < n; ++i) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", static_cast<int64_t>(track(i).pid));
    w.kv("tid", static_cast<int64_t>(i));
    w.key("args");
    w.begin_object();
    w.kv("name", track(i).name);
    w.end_object();
    w.end_object();
  }

  // Complete ("X") events; timestamps are microseconds in this format.
  // Instants are "i"; a flow-annotated span additionally emits the Chrome
  // "s"/"f" flow event at its start timestamp so the importer binds the
  // arrow to the enclosing slice.
  for (int i = 0; i < n; ++i) {
    const int64_t pid = track(i).pid;
    const int64_t tid = i;
    for (const TraceEvent& e : events(i)) {
      const char* name = e.name != nullptr ? e.name : "?";
      const double ts_us = static_cast<double>(e.start_ns) * 1e-3;
      w.begin_object();
      w.kv("name", name);
      if (e.kind == TraceEvent::Kind::kInstant) {
        w.kv("cat", "fleet");
        w.kv("ph", "i");
        w.kv("ts", ts_us);
        w.kv("s", "t");
      } else {
        w.kv("cat", e.flow != 0 ? "handoff" : "frame");
        w.kv("ph", "X");
        w.kv("ts", ts_us);
        w.kv("dur", static_cast<double>(e.dur_ns) * 1e-3);
      }
      w.kv("pid", pid);
      w.kv("tid", tid);
      if (e.frame >= 0) {
        w.key("args");
        w.begin_object();
        w.kv("frame", e.frame);
        w.end_object();
      }
      w.end_object();
      if (e.kind == TraceEvent::Kind::kSpan && e.flow != 0) {
        w.begin_object();
        // Flow events of one id must share a name for chrome://tracing
        // to connect them; the span name above carries the direction.
        w.kv("name", "session-handoff");
        w.kv("cat", "handoff");
        w.kv("ph", e.flow_dir > 0 ? "s" : "f");
        if (e.flow_dir < 0) w.kv("bp", "e");
        w.kv("id", static_cast<int64_t>(e.flow));
        w.kv("ts", ts_us);
        w.kv("pid", pid);
        w.kv("tid", tid);
        w.end_object();
      }
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = export_chrome_trace();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace qserv::obs
