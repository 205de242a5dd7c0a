// Observability layer tests: tracer ring semantics, JSON emission and
// escaping, Chrome trace export validity, metrics registry and histogram
// percentiles, multi-threaded span emission (TSan-clean by construction:
// one writer per track), and end-to-end harness integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/bots/client_driver.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/json_export.hpp"
#include "src/obs/json.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/obs/trace.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/histogram.hpp"
#include "src/vthread/real_platform.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv {
namespace {

// "<prefix><n>". Built by appending: GCC 12 at -O3 flags
// `"lit" + std::to_string(n)` with -Wrestrict.
std::string numbered(const char* prefix, int n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

// ---- minimal JSON syntax checker (validation only, no DOM) ------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string_view l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- JSON emission ----------------------------------------------------

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, WriterEmitsWellFormedDocument) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("name", "qserv \"bench\"");
  w.kv("count", 42);
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.begin_object();
  w.kv("nested", "yes");
  w.end_object();
  w.end_array();
  w.key("nothing");
  w.null();
  w.end_object();

  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_NE(out.find("\"count\":42"), std::string::npos);
  EXPECT_NE(out.find("[1,2,{\"nested\":\"yes\"}]"), std::string::npos);
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(out, "[null,null]");
}

// ---- tracer ring semantics -------------------------------------------

TEST(TracerTest, RingKeepsNewestAndCountsDropped) {
  vt::SimPlatform platform;
  obs::Tracer::Config cfg;
  cfg.capacity_per_track = 8;
  obs::Tracer tracer(platform, cfg);
  const int t = tracer.make_track("t0");

  for (int i = 0; i < 20; ++i)
    tracer.record(t, "span", /*start_ns=*/i * 100, /*dur_ns=*/50, i);

  const auto events = tracer.events(t);
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(t), 12u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  // Oldest surviving span first: frames 12..19.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].frame, static_cast<int64_t>(12 + i));
    EXPECT_EQ(events[i].start_ns, static_cast<int64_t>((12 + i) * 100));
  }
}

TEST(TracerTest, DisabledAndNullTracersRecordNothing) {
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  const int t = tracer.make_track("t0");

  tracer.set_enabled(false);
  { obs::TraceScope s(&tracer, t, "off"); }
  { obs::TraceScope s(nullptr, 0, "null"); }  // must not crash
  EXPECT_EQ(tracer.total_recorded(), 0u);

  tracer.set_enabled(true);
  { obs::TraceScope s(&tracer, t, "on"); }
  EXPECT_EQ(tracer.total_recorded(), 1u);
}

TEST(TracerTest, ChromeExportIsValidAndNamesTracks) {
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  const int a = tracer.make_track("alpha");
  const int b = tracer.make_track("beta \"quoted\"");
  tracer.record(a, "world", 1000, 500, 3);
  tracer.record(b, "exec", 1500, 200);

  const std::string json = tracer.export_chrome_trace();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
  EXPECT_NE(json.find("beta \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"world\""), std::string::npos);
  EXPECT_NE(json.find("\"frame\":3"), std::string::npos);
}

TEST(TracerTest, UnboundTracerBindsLater) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.bound());
  EXPECT_EQ(tracer.now_ns(), 0);
  vt::SimPlatform platform;
  tracer.bind(platform);
  EXPECT_TRUE(tracer.bound());
}

// One writer per track from concurrent OS threads: must be TSan-clean
// and lose nothing.
TEST(TracerTest, ConcurrentSingleWriterTracks) {
  vt::RealPlatform platform;
  obs::Tracer::Config cfg;
  cfg.capacity_per_track = 1 << 12;
  obs::Tracer tracer(platform, cfg);

  constexpr int kThreads = 4;
  constexpr int kSpans = 10000;
  std::vector<int> tracks;
  for (int i = 0; i < kThreads; ++i)
    tracks.push_back(tracer.make_track(numbered("w", i)));

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int s = 0; s < kSpans; ++s) {
        obs::TraceScope scope(&tracer, tracks[static_cast<size_t>(i)],
                              "span");
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.total_recorded(),
            static_cast<uint64_t>(kThreads) * kSpans);
  for (const int t : tracks) {
    EXPECT_EQ(tracer.events(t).size(), cfg.capacity_per_track);
    EXPECT_EQ(tracer.dropped(t), static_cast<uint64_t>(kSpans) -
                                     cfg.capacity_per_track);
  }
}

// ---- fleet-mode tracer: pids, instants, flows, interning --------------

TEST(TracerTest, InstantAndFlowEventsExportWithProcessNames) {
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  tracer.set_process_name(2, "shard-0");
  tracer.set_process_name(3, "shard-1");
  const int a = tracer.make_track("shard-0/handoff", /*pid=*/2);
  const int b = tracer.make_track("shard-1/handoff", /*pid=*/3);
  EXPECT_EQ(tracer.track_pid(a), 2);
  EXPECT_EQ(tracer.track_pid(b), 3);

  tracer.record_flow_span(a, "handoff-out", 1000, 100, /*frame=*/5,
                          /*flow=*/7, /*outgoing=*/true);
  tracer.record_flow_span(b, "handoff-in", 2000, 100, /*frame=*/-1,
                          /*flow=*/7, /*outgoing=*/false);
  tracer.record_instant(b, "quarantine:crash-flag");

  const std::string json = tracer.export_chrome_trace();
  ASSERT_TRUE(JsonChecker(json).valid()) << json;

  // Structural check through the DOM parser: the flow must appear as a
  // Chrome "s"/"f" pair sharing an id, crossing the two shard pids.
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, doc, &err)) << err;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int flow_start = 0, flow_finish = 0, instants = 0, procs = 0;
  std::vector<double> flow_pids;
  for (const obs::JsonValue& e : events->items) {
    const std::string ph = e.find("ph")->string_or("");
    if (ph == "s" || ph == "f") {
      EXPECT_EQ(e.find("id")->number_or(-1), 7.0);
      EXPECT_EQ(e.find("name")->string_or(""), "session-handoff");
      flow_pids.push_back(e.find("pid")->number_or(-1));
      (ph == "s" ? flow_start : flow_finish)++;
    } else if (ph == "i") {
      EXPECT_EQ(e.find("name")->string_or(""), "quarantine:crash-flag");
      ++instants;
    } else if (ph == "M" &&
               e.find("name")->string_or("") == "process_name") {
      ++procs;
    }
  }
  EXPECT_EQ(flow_start, 1);
  EXPECT_EQ(flow_finish, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(procs, 2);
  ASSERT_EQ(flow_pids.size(), 2u);
  EXPECT_NE(flow_pids[0], flow_pids[1]);  // the arrow crosses processes
}

TEST(TracerTest, InternedNamesAreStableAndDeduplicated) {
  obs::Tracer tracer;
  const char* a = tracer.intern("slo:frame_p99");
  const char* b = tracer.intern("slo:frame_p99");
  EXPECT_EQ(a, b);  // same string, same storage
  const char* c = tracer.intern("slo:lost_clients");
  EXPECT_NE(a, c);
  // Interning more names must not invalidate earlier pointers.
  for (int i = 0; i < 1000; ++i) tracer.intern(numbered("name-", i));
  EXPECT_EQ(std::string(a), "slo:frame_p99");
}

// A supervisor-rebuilt engine registers fresh tracks while the rest of
// the fleet is recording: registration must be safe against concurrent
// writers (the track table never reallocates).
TEST(TracerTest, TrackRegistrationIsSafeUnderConcurrentRecording) {
  vt::RealPlatform platform;
  obs::Tracer::Config cfg;
  cfg.capacity_per_track = 1 << 10;
  obs::Tracer tracer(platform, cfg);

  constexpr int kWriters = 3;
  constexpr int kSpans = 20000;
  std::vector<int> tracks;
  for (int i = 0; i < kWriters; ++i)
    tracks.push_back(tracer.make_track(numbered("w", i)));

  std::vector<std::thread> threads;
  for (int i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      for (int s = 0; s < kSpans; ++s)
        tracer.record(tracks[static_cast<size_t>(i)], "span", s, 1);
    });
  }
  // Meanwhile: register new tracks (and write one event to each), as a
  // rebuilt shard generation would.
  threads.emplace_back([&] {
    for (int g = 0; g < 100; ++g) {
      const int t = tracer.make_track(numbered("g", g), /*pid=*/g);
      tracer.record_instant(t, "restore");
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.track_count(), kWriters + 100);
  EXPECT_EQ(tracer.total_recorded(),
            static_cast<uint64_t>(kWriters) * kSpans + 100);
  EXPECT_EQ(tracer.track_name(tracks[0]), "w0");
}

// ---- phase scopes: the trace and the breakdown agree -----------------

// Per span name, the self time of every phase span on `track`: its
// duration minus the phase spans nested directly inside it. Spans are
// recorded when they close, so a parent follows its children.
std::map<std::string, int64_t> phase_self_times(const obs::Tracer& tracer,
                                                int track) {
  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& e : tracer.events(track)) {
    for (const core::Component& c : core::kComponents)
      if (e.kind == obs::TraceEvent::Kind::kSpan &&
          std::string_view(e.name) == c.span)
        spans.push_back(e);
  }
  const auto end = [&](size_t i) {
    return spans[i].start_ns + spans[i].dur_ns;
  };
  // Outermost first: by start, then longest, then recorded last.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].start_ns != spans[b].start_ns)
      return spans[a].start_ns < spans[b].start_ns;
    if (end(a) != end(b)) return end(a) > end(b);
    return a > b;
  });
  std::map<std::string, int64_t> self;
  std::vector<size_t> open;  // the enclosing spans, innermost last
  for (const size_t i : order) {
    while (!open.empty() && end(open.back()) <= spans[i].start_ns)
      open.pop_back();
    if (!open.empty()) {
      EXPECT_LE(end(i), end(open.back())) << "spans overlap";
      self[spans[open.back()].name] -= spans[i].dur_ns;
    }
    self[spans[i].name] += spans[i].dur_ns;
    open.push_back(i);
  }
  return self;
}

void expect_trace_matches_breakdown(const obs::Tracer& tracer, int track,
                                    const core::Breakdown& b) {
  EXPECT_EQ(tracer.dropped(track), 0u);
  const auto self = phase_self_times(tracer, track);
  for (const core::Component& c : core::kComponents) {
    const auto it = self.find(c.span);
    EXPECT_EQ(it == self.end() ? 0 : it->second, (b.*c.ms).ns)
        << c.span << " on track " << track;
  }
}

TEST(PhaseScopeTest, TraceSelfTimesEqualTheBreakdownInVirtualTime) {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 2, 32,
                                   core::LockPolicy::kOptimized);
  cfg.seed = 11;
  cfg.warmup = vt::Duration{};  // every span lies inside the measurement
  cfg.measure = vt::seconds(2);
  cfg.bot_aggression = 1.0f;
  obs::Tracer tracer;
  cfg.tracer = &tracer;
  const auto r = harness::run_experiment(cfg);

  EXPECT_GT(r.total_frags, 0u);
  EXPECT_GT(r.breakdown.lock_parent.ns, 0);  // list locks nested in exec
  EXPECT_GT(r.breakdown.exec.ns, 0);
  ASSERT_EQ(tracer.track_count(), 2);
  ASSERT_EQ(r.per_thread.size(), 2u);
  for (int t = 0; t < 2; ++t)
    expect_trace_matches_breakdown(tracer, t,
                                   r.per_thread[static_cast<size_t>(t)]);
}

TEST(PhaseScopeTest, TraceSelfTimesEqualTheBreakdownOnRealThreads) {
  vt::RealPlatform platform;
  net::VirtualNetwork network(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.lock_policy = core::LockPolicy::kOptimized;
  core::ParallelServer server(platform, network, map, scfg);
  obs::Tracer tracer;
  server.attach_observability(&tracer, nullptr);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  dcfg.frame_interval = vt::millis(10);
  dcfg.aggression = 1.0f;
  bots::ClientDriver driver(platform, network, map, server, dcfg);
  server.start();
  driver.start();
  platform.call_after(vt::millis(600), [&] {
    server.request_stop();
    driver.request_stop();
  });
  platform.join_all();

  EXPECT_GT(server.total_requests(), 0u);
  EXPECT_GT(server.total_breakdown().lock().ns, 0);
  for (int t = 0; t < 2; ++t)
    expect_trace_matches_breakdown(
        tracer, t, server.thread_stats()[static_cast<size_t>(t)].breakdown);
}

// The warmup boundary can land inside an open exec: the exec still
// charges its elapsed time minus the list lock nested in it, however much
// lock time the thread had before the reset.
TEST(PhaseScopeTest, ResetInsideAnOpenScopeChargesElapsedMinusTheChild) {
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  core::ThreadStats st;
  st.tracer = &tracer;
  st.trace_track = tracer.make_track("t0");
  st.breakdown.lock_leaf = vt::millis(40);  // the warmup's lock time
  platform.spawn("t", vt::Domain::kServer, [&] {
    core::PhaseScope exec(platform, st, core::Phase::kExec);
    platform.compute(vt::millis(2));
    st.reset();
    {
      core::PhaseScope lock(platform, st, core::Phase::kLockParent);
      platform.compute(vt::millis(3));
    }
    platform.compute(vt::millis(1));
  });
  platform.run();

  EXPECT_EQ(st.breakdown.exec.ns, vt::millis(3).ns);  // 6 elapsed - 3
  EXPECT_EQ(st.breakdown.lock_parent.ns, vt::millis(3).ns);
  EXPECT_EQ(st.breakdown.lock_leaf.ns, 0);
  EXPECT_EQ(st.open_scope, nullptr);
  EXPECT_EQ(st.tracer, &tracer);
  const auto spans = tracer.events(st.trace_track);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(std::string(spans[0].name), "lock-parent");
  EXPECT_EQ(std::string(spans[1].name), "exec");
  EXPECT_EQ(spans[1].dur_ns, vt::millis(6).ns);
  expect_trace_matches_breakdown(tracer, st.trace_track, st.breakdown);
}

// ---- metrics ----------------------------------------------------------

TEST(MetricsTest, RegistryFindsOrCreatesAndSnapshots) {
  obs::MetricsRegistry reg;
  reg.gauge("server.clients").set(17.0);
  auto& h = reg.histogram("frame_ms");
  h.observe(10.0);
  reg.histogram("frame_ms").observe(20.0);  // same instrument
  EXPECT_EQ(reg.size(), 2u);

  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  // Sorted by name: frame_ms, server.clients.
  EXPECT_EQ(samples[0].name, "frame_ms");
  EXPECT_EQ(samples[0].count, 2u);
  EXPECT_NEAR(samples[0].value, 15.0, 2.0);  // mean, log-bucket tolerance
  EXPECT_EQ(samples[1].name, "server.clients");
  EXPECT_EQ(samples[1].value, 17.0);
}

TEST(MetricsTest, HistogramPercentilesAreAccurate) {
  Histogram h(/*smallest=*/0.5, /*base=*/1.25);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  // Log buckets with base 1.25 bound each percentile within one bucket
  // (25% wide) before interpolation; 15% relative tolerance is safe.
  EXPECT_NEAR(h.percentile(50), 500.0, 75.0);
  EXPECT_NEAR(h.percentile(95), 950.0, 145.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 150.0);
  EXPECT_EQ(h.count(), 1000u);
}

// ---- SLO monitor ------------------------------------------------------

std::vector<obs::MetricSample> slo_samples(double p99, uint64_t count,
                                           double lost) {
  obs::MetricSample frames;
  frames.name = "server.frame_duration_ms";
  frames.kind = obs::MetricKind::kHistogram;
  frames.count = count;
  frames.p99 = p99;
  obs::MetricSample lost_g;
  lost_g.name = "fleet.clients.lost";
  lost_g.kind = obs::MetricKind::kGauge;
  lost_g.value = lost;
  return {frames, lost_g};
}

TEST(SloMonitorTest, DetectsBreachesSkipsAbsentAndUnderfilled) {
  obs::SloMonitor mon;  // default fleet SLOs
  // Healthy window: under budget, nothing lost.
  EXPECT_EQ(mon.evaluate(slo_samples(8.0, 100, 0.0), 1.0, "shard0"), 0);
  EXPECT_TRUE(mon.breaches().empty());
  // Frame budget breached.
  EXPECT_EQ(mon.evaluate(slo_samples(14.0, 100, 0.0), 2.0, "shard0"), 1);
  // Histogram below min_count: percentile noise must not trigger.
  EXPECT_EQ(mon.evaluate(slo_samples(99.0, 3, 0.0), 3.0, "shard1"), 0);
  // Lost clients (gauge, exact-zero bound).
  EXPECT_EQ(mon.evaluate(slo_samples(8.0, 100, 2.0), 4.0, "fleet"), 1);
  // Empty snapshot: every spec absent, every spec skipped.
  EXPECT_EQ(mon.evaluate({}, 5.0, "shard2"), 0);

  ASSERT_EQ(mon.breaches().size(), 2u);
  EXPECT_EQ(mon.breaches()[0].slo, "frame_p99");
  EXPECT_EQ(mon.breaches()[0].scope, "shard0");
  EXPECT_EQ(mon.breaches()[0].observed, 14.0);
  EXPECT_EQ(mon.breaches()[1].slo, "lost_clients");
  EXPECT_EQ(mon.breaches()[1].scope, "fleet");
  EXPECT_EQ(mon.evaluations(), 5u);
}

TEST(SloMonitorTest, BreachEmitsTraceInstant) {
  vt::SimPlatform platform;
  obs::Tracer tracer(platform);
  const int track = tracer.make_track("fleet/slo");
  obs::SloMonitor mon;
  mon.evaluate(slo_samples(14.0, 100, 0.0), 1.0, "shard0", &tracer, track);
  const auto events = tracer.events(track);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::kInstant);
  EXPECT_EQ(std::string(events[0].name), "slo:frame_p99");
}

// ---- JSON parser (the qserv-trend reader) -----------------------------

TEST(JsonParseTest, ParsesNestedDocumentsAndPaths) {
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(
      R"({"schema":"qserv-bench-v1","groups":[{"name":"g",
          "points":[{"label":"2t/64p","response":{"rate_per_s":1234.5,
          "connected":64},"ok":true,"note":"a\"bé"}]}]})",
      doc, &err))
      << err;
  const obs::JsonValue* pt = doc.at_path("groups");
  ASSERT_NE(pt, nullptr);
  ASSERT_TRUE(pt->is_array());
  const obs::JsonValue& point = pt->items[0].find("points")->items[0];
  EXPECT_EQ(point.at_path("response.rate_per_s")->number_or(0), 1234.5);
  EXPECT_EQ(point.at_path("response.connected")->number_or(0), 64.0);
  EXPECT_TRUE(point.find("ok")->boolean);
  EXPECT_EQ(point.find("note")->string_or(""), "a\"b\xc3\xa9");
  EXPECT_EQ(point.at_path("response.missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\":1} trailing", v, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
  EXPECT_FALSE(obs::json_parse("{\"a\":}", v, &err));
  EXPECT_FALSE(obs::json_parse("[1,2", v, &err));
  EXPECT_FALSE(obs::json_parse("\"unterminated", v, &err));
  EXPECT_FALSE(obs::json_parse("01x", v, &err));
  // Depth bomb: must fail cleanly, not overflow the stack.
  EXPECT_FALSE(obs::json_parse(std::string(5000, '['), v, &err));
  // \u escapes: a surrogate pair decodes to one code point, a high
  // surrogate followed by any other escape keeps that escape's character,
  // and a cut-off escape is an error.
  ASSERT_TRUE(obs::json_parse(R"("\uD83D\uDE00")", v, &err)) << err;
  EXPECT_EQ(v.string_or(""), "\xf0\x9f\x98\x80");
  ASSERT_TRUE(obs::json_parse(R"("\uD800\u0041B")", v, &err)) << err;
  EXPECT_EQ(v.string_or(""), "\xed\xa0\x80" "AB");
  EXPECT_FALSE(obs::json_parse(R"("\uD8")", v, &err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  // One input per remaining error path, each with the error it names.
  const std::pair<std::string, std::string> cases[] = {
      {"tru", "bad literal"},
      {"{1:2}", "expected object key"},
      {R"({"a" 1})", "expected ':'"},
      {R"({"a":1 "b":2})", "expected ',' or '}'"},
      {"[1 2]", "expected ',' or ']'"},
      {R"("\x")", "bad escape"},
      {R"("\u12G4")", "bad \\u escape"},
      {R"("abc\)", "truncated escape"},
      {"--1", "bad number"},
      {"", "unexpected end of input"},
  };
  for (const auto& [input, why] : cases) {
    err.clear();
    EXPECT_FALSE(obs::json_parse(input, v, &err)) << input;
    EXPECT_FALSE(err.empty()) << input;
    EXPECT_NE(err.find(why), std::string::npos) << input << " -> " << err;
  }
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  // Everything the repo's writer emits must be readable by the parser.
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("name", "spän \"x\"\n");
  w.kv("neg", -12.75);
  w.key("arr");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(out, v, &err)) << out << " -- " << err;
  EXPECT_EQ(v.find("name")->string_or(""), "spän \"x\"\n");
  EXPECT_EQ(v.find("neg")->number_or(0), -12.75);
  EXPECT_EQ(v.find("arr")->items.size(), 2u);
}

// ---- end-to-end through the harness ----------------------------------

harness::ExperimentConfig small_config() {
  auto cfg = harness::paper_config(harness::ServerMode::kParallel, 2, 16,
                                   core::LockPolicy::kConservative);
  cfg.warmup = vt::millis(500);
  cfg.measure = vt::seconds(1);
  return cfg;
}

TEST(ObsIntegrationTest, ExperimentEmitsSpansAndMetrics) {
  auto cfg = small_config();
  obs::Tracer tracer;  // unbound: the server binds it on attach
  obs::MetricsRegistry metrics;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;

  const auto r = harness::run_experiment(cfg);
  ASSERT_GT(r.frames, 0u);

  EXPECT_GT(tracer.total_recorded(), 0u);
  const std::string json = tracer.export_chrome_trace();
  EXPECT_TRUE(JsonChecker(json).valid());
  for (const char* phase : {"world", "exec", "reply", "frame"})
    EXPECT_NE(json.find("\"" + std::string(phase) + "\""),
              std::string::npos)
        << "missing phase span: " << phase;

  // The live instruments the server and lock manager feed.
  const auto samples = metrics.snapshot();
  auto find = [&](const std::string& name) -> const obs::MetricSample* {
    for (const auto& s : samples)
      if (s.name == name) return &s;
    return nullptr;
  };
  ASSERT_NE(find("server.frame_duration_ms"), nullptr);
  EXPECT_GT(find("server.frame_duration_ms")->count, 0u);
  ASSERT_NE(find("lock.leaf_wait_us"), nullptr);
}

// The server's whole-frame histograms: every frame observes one duration
// and its move count in the master window, on both drivers. Metrics are
// attached before start() and never reset, so the histograms cover the
// whole run.
void expect_frame_histograms_cover_run(core::ServerConfig scfg,
                                       bool parallel) {
  vt::SimPlatform platform;
  net::VirtualNetwork network(platform, {});
  const auto map = spatial::make_large_deathmatch(7);
  std::unique_ptr<core::Server> server;
  if (parallel)
    server =
        std::make_unique<core::ParallelServer>(platform, network, map, scfg);
  else
    server =
        std::make_unique<core::SequentialServer>(platform, network, map, scfg);
  obs::MetricsRegistry metrics;
  server->attach_observability(nullptr, &metrics);
  bots::ClientDriver::Config dcfg;
  dcfg.players = 8;
  bots::ClientDriver driver(platform, network, map, *server, dcfg);
  server->start();
  driver.start();
  platform.call_after(vt::seconds(2), [&] {
    server->request_stop();
    driver.request_stop();
  });
  platform.run();

  const uint64_t frames = server->frames();
  ASSERT_GT(server->total_requests(), 0u);
  const Histogram duration =
      metrics.histogram("server.frame_duration_ms").snapshot();
  const Histogram moves =
      metrics.histogram("server.moves_per_frame").snapshot();
  EXPECT_EQ(duration.count(), frames);
  EXPECT_EQ(moves.count(), frames);
  // count x mean: the moves of all frames are every request executed.
  EXPECT_EQ(moves.stats().sum(),
            static_cast<double>(server->total_requests()));
}

TEST(ObsIntegrationTest, FrameHistogramsCoverEveryFrameSequential) {
  expect_frame_histograms_cover_run(core::ServerConfig{}, /*parallel=*/false);
}

TEST(ObsIntegrationTest, FrameHistogramsCoverEveryFrameParallel) {
  core::ServerConfig scfg;
  scfg.threads = 2;
  scfg.lock_policy = core::LockPolicy::kConservative;
  expect_frame_histograms_cover_run(scfg, /*parallel=*/true);
}

TEST(ObsIntegrationTest, TracingDoesNotPerturbVirtualTime) {
  auto base = small_config();
  const auto r0 = harness::run_experiment(base);

  auto traced = small_config();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  traced.tracer = &tracer;
  traced.metrics = &metrics;
  const auto r1 = harness::run_experiment(traced);

  EXPECT_EQ(r0.frames, r1.frames);
  EXPECT_EQ(r0.replies, r1.replies);
  EXPECT_EQ(r0.sim_events, r1.sim_events);
  EXPECT_EQ(r0.response_rate, r1.response_rate);
}

TEST(ObsIntegrationTest, FrameTraceRespectsCapAndCountsDrops) {
  auto cfg = small_config();
  cfg.frame_trace = true;
  cfg.server.frame_trace_limit = 4;
  const auto r = harness::run_experiment(cfg);

  ASSERT_FALSE(r.frame_traces.empty());
  for (const auto& trace : r.frame_traces)
    EXPECT_LE(trace.size(), 4u);
  EXPECT_GT(r.frame_trace_dropped, 0u);
}

TEST(ObsIntegrationTest, BenchJsonExportIsValid) {
  auto cfg = small_config();
  const auto r = harness::run_experiment(cfg);

  harness::BenchJsonWriter json("obs_test");
  json.add("g1", "2t/16p", cfg, r);
  json.add_raw("g2", "{\"label\":\"custom\"}");
  const std::string doc = json.to_json();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("qserv-bench-v1"), std::string::npos);
  EXPECT_NE(doc.find("\"mode\":\"parallel\""), std::string::npos);
  EXPECT_NE(doc.find("\"frame_trace_dropped\""), std::string::npos);
}

}  // namespace
}  // namespace qserv
