// Harness tests: canonical configuration factory, sweep helpers, report
// formatting, and the experiment runner's accounting identities.
#include <gtest/gtest.h>

#include "src/harness/experiment.hpp"
#include "src/harness/json_export.hpp"
#include "src/harness/report.hpp"
#include "src/harness/sweep.hpp"
#include "src/obs/json.hpp"
#include "src/obs/json_parse.hpp"

namespace qserv::harness {
namespace {

TEST(PaperConfig, MatchesTable1Machine) {
  const auto cfg = paper_config(ServerMode::kParallel, 8, 128,
                                core::LockPolicy::kOptimized);
  EXPECT_EQ(cfg.machine.cores, 4);
  EXPECT_EQ(cfg.machine.ht_per_core, 2);
  EXPECT_DOUBLE_EQ(cfg.machine.ht_throughput, 1.25);
  EXPECT_EQ(cfg.server.threads, 8);
  EXPECT_EQ(cfg.players, 128);
  EXPECT_NE(cfg.map, nullptr);
}

TEST(DefaultMap, IsCachedPerSeed) {
  const auto a = default_map(7);
  const auto b = default_map(7);
  const auto c = default_map(8);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

TEST(PaperGrid, BuildsThreadByPlayerMatrix) {
  const auto grid =
      paper_grid({2, 4}, {64, 96, 128}, core::LockPolicy::kConservative);
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].label, "2t/64p");
  EXPECT_EQ(grid[5].label, "4t/128p");
  EXPECT_EQ(grid[3].config.server.threads, 4);
  EXPECT_EQ(grid[3].config.players, 64);
  // Thread count 0 encodes the sequential server.
  const auto seq = paper_grid({0}, {64}, core::LockPolicy::kConservative);
  EXPECT_EQ(seq[0].config.mode, ServerMode::kSequential);
  EXPECT_EQ(seq[0].config.server.lock_policy, core::LockPolicy::kNone);
}

TEST(SaturationHelper, FindsLastImprovingPoint) {
  std::vector<SweepPoint> pts(4);
  const std::vector<int> players{64, 96, 128, 160};
  pts[0].result.response_rate = 1000;
  pts[1].result.response_rate = 1500;
  pts[2].result.response_rate = 2000;
  pts[3].result.response_rate = 1900;  // declined
  EXPECT_EQ(saturation_players(pts, players), 128);
  // Monotonic growth all the way: saturation = last point.
  pts[3].result.response_rate = 2600;
  EXPECT_EQ(saturation_players(pts, players), 160);
  // Flat from the start: saturation = first point.
  for (auto& p : pts) p.result.response_rate = 1000;
  EXPECT_EQ(saturation_players(pts, players), 64);
}

// A hand-built breakdown whose components all differ: 1000 ms in total.
ExperimentResult hand_built_result() {
  ExperimentResult r;
  core::Breakdown& b = r.breakdown;
  b.exec = vt::millis(100);
  b.lock_leaf = vt::millis(50);
  b.lock_parent = vt::millis(25);
  b.receive = vt::millis(75);
  b.reply = vt::millis(200);
  b.world = vt::millis(150);
  b.intra_wait = vt::millis(100);
  b.inter_wait_world = vt::millis(60);
  b.inter_wait_frame = vt::millis(40);
  b.idle = vt::millis(200);
  r.pct = core::to_percent(b);
  r.response_rate = 1234.0;
  r.response_ms_mean = 12.5;
  r.frames = 77;
  r.client_sessions = 9;
  r.client_crashes = 2;
  r.client_quits = 3;
  r.client_rejoins = 4;
  r.evictions = 5;
  r.rejected_connects = 6;
  r.invariant_violations = 0;
  return r;
}

TEST(Report, BreakdownRowsAreWellFormed) {
  const ExperimentResult r = hand_built_result();
  EXPECT_EQ(r.breakdown.total().ns, vt::millis(1000).ns);
  EXPECT_EQ(breakdown_header("cfg"),
            (std::vector<std::string>{"cfg", "exec", "lock-leaf",
                                      "lock-parent", "receive", "reply",
                                      "world", "intra-wait", "inter-wait",
                                      "idle"}));
  EXPECT_EQ(breakdown_row("x", r),
            (std::vector<std::string>{"x", "10.0%", "5.0%", "2.5%", "7.5%",
                                      "20.0%", "15.0%", "10.0%", "10.0%",
                                      "20.0%"}));
}

TEST(Report, LifecycleRowsAndSummary) {
  const ExperimentResult r = hand_built_result();
  const auto header = lifecycle_header("run");
  const auto row = lifecycle_row("churn", r);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(header[1], "sessions");
  EXPECT_EQ(row, (std::vector<std::string>{"churn", "9", "2", "3", "4", "5",
                                           "6", "0"}));
  EXPECT_EQ(rate_row("r", r)[1], "1234");

  testing::internal::CaptureStdout();
  print_summary("2t/64p", r);
  const std::string line = testing::internal::GetCapturedStdout();
  EXPECT_NE(line.find("2t/64p"), std::string::npos) << line;
  EXPECT_NE(line.find("rate=   1234 replies/s"), std::string::npos) << line;
  EXPECT_NE(line.find("lock= 7.5% [leaf 5.0% par 2.5%]"), std::string::npos)
      << line;
  EXPECT_NE(line.find("wait=20.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("frames=77"), std::string::npos) << line;
}

// qserv-trend reads the breakdown objects by key: the export must keep
// the committed keys, in the committed order, with the breakdown's values.
TEST(JsonExport, BreakdownKeysKeepTheirOrderAndValues) {
  const ExperimentResult r = hand_built_result();
  std::string out;
  obs::JsonWriter w(out);
  const ExperimentConfig cfg;
  write_result_json(w, "2t/64p", cfg, r);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(out, doc, &err)) << err;

  const std::vector<std::string> keys{
      "exec",  "lock_leaf",  "lock_parent",      "receive",          "reply",
      "world", "intra_wait", "inter_wait_world", "inter_wait_frame", "idle"};
  const std::vector<double> ms{100, 50, 25, 75, 200, 150, 100, 60, 40, 200};
  for (const char* object : {"breakdown_ms", "breakdown_pct"}) {
    const obs::JsonValue* v = doc.find(object);
    ASSERT_NE(v, nullptr) << object;
    ASSERT_EQ(v->members.size(), keys.size()) << object;
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(v->members[i].first, keys[i]) << object;
      const double want =
          std::string(object) == "breakdown_ms" ? ms[i] : ms[i] / 1000.0;
      EXPECT_DOUBLE_EQ(v->members[i].second.number_or(-1), want)
          << object << "." << keys[i];
    }
  }
  EXPECT_EQ(doc.at_path("reply_share")->number_or(-1), 0.2);
}

TEST(Experiment, AccountingIdentitiesHold) {
  auto cfg = paper_config(ServerMode::kParallel, 2, 24,
                          core::LockPolicy::kConservative);
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(3);
  const auto r = run_experiment(cfg);
  // Breakdown totals the threads' wall time over the measured window
  // (within the slack of frames straddling the boundary).
  const double expected = 2.0 * 3.0;
  EXPECT_NEAR(r.breakdown.total().seconds(), expected, 0.25);
  // Percentages sum to 1.
  const auto& p = r.pct;
  EXPECT_NEAR(p.exec + p.lock() + p.receive + p.reply + p.world +
                  p.intra_wait + p.inter_wait() + p.idle,
              1.0, 1e-9);
  // Client replies match server replies sent (no loss configured),
  // modulo in-flight packets at the stop boundary.
  EXPECT_NEAR(static_cast<double>(r.replies),
              static_cast<double>(r.requests), r.requests * 0.25);
}

TEST(Experiment, MeasureWindowExcludesWarmup) {
  auto cfg = paper_config(ServerMode::kSequential, 1, 16,
                          core::LockPolicy::kNone);
  cfg.warmup = vt::seconds(1);
  cfg.measure = vt::seconds(2);
  const auto r = run_experiment(cfg);
  // 16 clients x ~30 replies/s x 2 s measured.
  EXPECT_NEAR(static_cast<double>(r.replies), 16 * 30.3 * 2, 120.0);
}

}  // namespace
}  // namespace qserv::harness
