// Shared helpers for the figure benches: measurement-window defaults
// (overridable via QSERV_MEASURE_SECONDS / QSERV_WARMUP_SECONDS for
// longer, paper-length runs), common formatting, and the standard CLI
// every bench binary supports (parse_args — unknown flags are a hard
// error):
//   --json <path>      results as "qserv-bench-v1" JSON (harness/json_export)
//   --trace <path>     Chrome trace-event JSON of a representative config,
//                      viewable in chrome://tracing or https://ui.perfetto.dev
//   --measure <secs>   measurement window (sets QSERV_MEASURE_SECONDS)
//   --warmup <secs>    warmup window (sets QSERV_WARMUP_SECONDS)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/harness/experiment.hpp"
#include "src/harness/json_export.hpp"
#include "src/harness/report.hpp"
#include "src/harness/sweep.hpp"
#include "src/obs/trace.hpp"
#include "src/util/table.hpp"

namespace qserv::bench {

inline double env_seconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const double parsed = std::atof(v);
  return parsed > 0.0 ? parsed : fallback;
}

// Applies the standard measurement windows. The paper ran 2-minute
// experiments; 8 simulated seconds after a 2-second warmup is enough for
// stable rates here (verified against 60 s runs), and can be raised via
// the environment.
inline void apply_windows(harness::ExperimentConfig& cfg) {
  cfg.warmup = vt::seconds_d(env_seconds("QSERV_WARMUP_SECONDS", 2.0));
  cfg.measure = vt::seconds_d(env_seconds("QSERV_MEASURE_SECONDS", 8.0));
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n\n");
  std::fflush(stdout);
}

struct Options {
  std::string json_path;
  std::string trace_path;
};

// The one CLI parser every bench main goes through (directly or via
// BenchOutput). Unknown flags are a hard error: a typoed flag must not
// silently run the default configuration for ten minutes. --measure and
// --warmup land in the QSERV_* environment variables so apply_windows()
// (and any subprocess the bench spawns) picks them up uniformly.
inline Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value_arg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto seconds_arg = [&](const char* flag, const char* env) {
      const char* v = value_arg(flag);
      if (std::atof(v) <= 0.0) {
        std::fprintf(stderr, "%s requires a positive seconds value\n", flag);
        std::exit(2);
      }
      setenv(env, v, /*overwrite=*/1);
    };
    if (a == "--json") {
      o.json_path = value_arg("--json");
    } else if (a == "--trace") {
      o.trace_path = value_arg("--trace");
    } else if (a == "--measure") {
      seconds_arg("--measure", "QSERV_MEASURE_SECONDS");
    } else if (a == "--warmup") {
      seconds_arg("--warmup", "QSERV_WARMUP_SECONDS");
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: %s [--json <path>] [--trace <path>] [--measure <secs>] "
          "[--warmup <secs>]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", a.c_str());
      std::exit(2);
    }
  }
  return o;
}

// Per-bench output sink. Results added during the run are written as
// qserv-bench-v1 JSON at finish() when --json was given; capture_trace()
// re-runs one representative configuration with the event tracer attached
// and writes Chrome trace JSON when --trace was given.
class BenchOutput {
 public:
  BenchOutput(const char* bench_name, int argc, char** argv)
      : opts_(parse_args(argc, argv)), json_(bench_name) {}

  const Options& options() const { return opts_; }

  void add(const std::string& group, const std::string& label,
           const harness::ExperimentConfig& cfg,
           const harness::ExperimentResult& r) {
    if (!opts_.json_path.empty()) json_.add(group, label, cfg, r);
  }
  void add_points(const std::string& group,
                  const std::vector<harness::SweepPoint>& points) {
    if (!opts_.json_path.empty()) json_.add_points(group, points);
  }
  void add_raw(const std::string& group, std::string point_json) {
    if (!opts_.json_path.empty()) json_.add_raw(group, std::move(point_json));
  }

  // Re-runs `cfg` with tracing on and exports the timeline. Windows are
  // shortened — a trace only needs a few hundred frames to be useful, and
  // the ring would hold just the tail of a long run anyway. The ring is
  // sized so one thread's 3 s, list-lock spans included, fits whole.
  void capture_trace(harness::ExperimentConfig cfg) {
    if (opts_.trace_path.empty()) return;
    cfg.warmup = vt::seconds(1);
    cfg.measure = vt::seconds(2);
    // Bound to the run's platform on attach.
    obs::Tracer tracer(obs::Tracer::Config{.capacity_per_track = 1 << 17});
    cfg.tracer = &tracer;
    std::printf("\ncapturing trace...\n");
    std::fflush(stdout);
    harness::run_experiment(cfg);
    if (tracer.write_chrome_trace(opts_.trace_path)) {
      std::printf(
          "wrote %llu spans across %d threads to %s "
          "(open in chrome://tracing or https://ui.perfetto.dev)\n",
          static_cast<unsigned long long>(tracer.total_recorded()),
          tracer.track_count(), opts_.trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   opts_.trace_path.c_str());
      failed_ = true;
    }
    std::fflush(stdout);
  }

  // Writes --json output if requested; returns main()'s exit code.
  int finish() {
    if (!opts_.json_path.empty()) {
      if (json_.write(opts_.json_path)) {
        std::printf("wrote results JSON to %s\n", opts_.json_path.c_str());
        std::fflush(stdout);
      } else {
        failed_ = true;
      }
    }
    return failed_ ? 1 : 0;
  }

 private:
  Options opts_;
  harness::BenchJsonWriter json_;
  bool failed_ = false;
};

}  // namespace qserv::bench
