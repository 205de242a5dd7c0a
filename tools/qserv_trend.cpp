// qserv-trend — perf-trend regression gate over committed BENCH_*.json
// files (qserv-bench-v1 schema).
//
// Modes:
//   qserv-trend --baseline OLD.json --candidate NEW.json [--threshold 0.10]
//     Match points across the two files by (bench, group, label) and
//     compare the keyed metrics. Exits 1 if any keyed metric regresses
//     past the threshold, 0 otherwise.
//   qserv-trend A.json B.json C.json ...
//     Trajectory mode: prints each keyed metric across the files in
//     order (oldest first) without gating. Two positional files behave
//     like --baseline/--candidate.
//
// Keyed metrics and their direction:
//   response.rate_per_s   higher is better (throughput)
//   response.ms_p95       lower is better (tail latency)
//   response.ms_mean      lower is better
//   response.connected    must not decrease at all (client survival)
//   pause_ms              lower is better (recovery pause, shard points)
//
// host_seconds is deliberately never gated: it measures the CI box, not
// the server. Exit codes: 0 pass, 1 regression, 2 usage/parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_parse.hpp"

using qserv::obs::JsonValue;

namespace {

struct KeyedMetric {
  const char* path;  // dotted path inside a point object
  enum class Dir { kHigherBetter, kLowerBetter, kNonDecreasing } dir;
};

constexpr KeyedMetric kMetrics[] = {
    {"response.rate_per_s", KeyedMetric::Dir::kHigherBetter},
    {"response.ms_p95", KeyedMetric::Dir::kLowerBetter},
    {"response.ms_mean", KeyedMetric::Dir::kLowerBetter},
    {"response.connected", KeyedMetric::Dir::kNonDecreasing},
    {"pause_ms", KeyedMetric::Dir::kLowerBetter},
    // Reply hot path (DESIGN.md §15): the reply phase's share of
    // execution time and the steady-state allocation rate. Both keys are
    // only present on points whose bench exports them; absent keys are
    // skipped, so older BENCH files stay comparable.
    {"reply_share", KeyedMetric::Dir::kLowerBetter},
    {"allocs_per_frame", KeyedMetric::Dir::kLowerBetter},
};

struct BenchFile {
  std::string path;
  std::string bench;
  // (group/label) -> point object. Pointers into `doc`.
  std::map<std::string, const JsonValue*> points;
  JsonValue doc;
};

// Raw shard points (bench_shard_failover) carry "run" and "shard"
// instead of "label"; synthesize a stable label so they match across
// files.
std::string point_label(const JsonValue& pt) {
  if (const JsonValue* l = pt.find("label"); l != nullptr && l->is_string())
    return l->str;
  const JsonValue* run = pt.find("run");
  const JsonValue* sh = pt.find("shard");
  if (run != nullptr && run->is_string() && sh != nullptr && sh->is_number())
    return run->str + "/shard" + std::to_string(static_cast<int>(sh->number));
  return {};
}

bool load_bench_file(const std::string& path, BenchFile& out,
                     std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string perr;
  if (!qserv::obs::json_parse(text, out.doc, &perr)) {
    err = path + ": " + perr;
    return false;
  }
  const JsonValue* schema = out.doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "qserv-bench-v1") {
    err = path + ": not a qserv-bench-v1 file";
    return false;
  }
  out.path = path;
  if (const JsonValue* b = out.doc.find("bench"); b != nullptr)
    out.bench = b->string_or("");
  const JsonValue* groups = out.doc.find("groups");
  if (groups == nullptr || !groups->is_array()) {
    err = path + ": no groups array";
    return false;
  }
  for (const JsonValue& g : groups->items) {
    const JsonValue* gname = g.find("name");
    const JsonValue* pts = g.find("points");
    if (gname == nullptr || pts == nullptr || !pts->is_array()) continue;
    for (const JsonValue& pt : pts->items) {
      const std::string label = point_label(pt);
      if (label.empty()) continue;
      out.points.emplace(gname->string_or("") + "/" + label, &pt);
    }
  }
  return true;
}

struct Delta {
  std::string point;  // group/label
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel = 0.0;  // signed relative change, candidate vs baseline
  bool regressed = false;
};

// Relative change is computed so that positive means "moved the wrong
// way" for the metric's direction; the threshold applies uniformly.
std::vector<Delta> compare(const BenchFile& base, const BenchFile& cand,
                           double threshold) {
  std::vector<Delta> out;
  for (const auto& [key, bpt] : base.points) {
    const auto it = cand.points.find(key);
    if (it == cand.points.end()) continue;
    for (const KeyedMetric& m : kMetrics) {
      const JsonValue* bv = bpt->at_path(m.path);
      const JsonValue* cv = it->second->at_path(m.path);
      if (bv == nullptr || cv == nullptr || !bv->is_number() ||
          !cv->is_number())
        continue;
      Delta d;
      d.point = key;
      d.metric = m.path;
      d.baseline = bv->number;
      d.candidate = cv->number;
      const double denom = std::fabs(d.baseline) > 1e-12 ? d.baseline : 1.0;
      d.rel = (d.candidate - d.baseline) / denom;
      switch (m.dir) {
        case KeyedMetric::Dir::kHigherBetter:
          d.regressed = d.rel < -threshold;
          break;
        case KeyedMetric::Dir::kLowerBetter:
          d.regressed = d.rel > threshold;
          break;
        case KeyedMetric::Dir::kNonDecreasing:
          d.regressed = d.candidate < d.baseline;
          break;
      }
      out.push_back(d);
    }
  }
  return out;
}

int run_gate(const std::string& base_path, const std::string& cand_path,
             double threshold) {
  BenchFile base, cand;
  std::string err;
  if (!load_bench_file(base_path, base, err) ||
      !load_bench_file(cand_path, cand, err)) {
    std::fprintf(stderr, "qserv-trend: %s\n", err.c_str());
    return 2;
  }
  if (!base.bench.empty() && !cand.bench.empty() && base.bench != cand.bench) {
    std::fprintf(stderr,
                 "qserv-trend: bench mismatch (baseline \"%s\" vs candidate "
                 "\"%s\")\n",
                 base.bench.c_str(), cand.bench.c_str());
    return 2;
  }
  const std::vector<Delta> deltas = compare(base, cand, threshold);
  if (deltas.empty()) {
    std::fprintf(stderr,
                 "qserv-trend: no comparable points between %s and %s\n",
                 base_path.c_str(), cand_path.c_str());
    return 2;
  }

  std::printf("qserv-trend: %s -> %s (bench \"%s\", threshold %.0f%%)\n",
              base_path.c_str(), cand_path.c_str(), cand.bench.c_str(),
              threshold * 100.0);
  std::printf("  %-28s %-22s %12s %12s %8s\n", "point", "metric", "baseline",
              "candidate", "delta");
  int regressions = 0;
  for (const Delta& d : deltas) {
    const bool interesting = d.regressed || std::fabs(d.rel) > threshold / 2;
    if (!interesting) continue;
    std::printf("  %-28s %-22s %12.3f %12.3f %+7.1f%%%s\n", d.point.c_str(),
                d.metric.c_str(), d.baseline, d.candidate, d.rel * 100.0,
                d.regressed ? "  REGRESSION" : "");
  }
  for (const Delta& d : deltas)
    if (d.regressed) ++regressions;
  if (regressions > 0) {
    std::printf("FAIL: %d keyed-metric regression(s) past %.0f%% across %zu "
                "comparisons\n",
                regressions, threshold * 100.0, deltas.size());
    return 1;
  }
  std::printf("PASS: no keyed-metric regressions across %zu comparisons\n",
              deltas.size());
  return 0;
}

int run_trajectory(const std::vector<std::string>& paths) {
  std::vector<BenchFile> files(paths.size());
  std::string err;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!load_bench_file(paths[i], files[i], err)) {
      std::fprintf(stderr, "qserv-trend: %s\n", err.c_str());
      return 2;
    }
  }
  std::printf("qserv-trend: trajectory across %zu files (oldest first)\n",
              paths.size());
  for (const auto& [key, pt0] : files.front().points) {
    for (const KeyedMetric& m : kMetrics) {
      if (pt0->at_path(m.path) == nullptr) continue;
      std::printf("  %-28s %-22s", key.c_str(), m.path);
      for (const BenchFile& f : files) {
        const auto it = f.points.find(key);
        const JsonValue* v =
            it != f.points.end() ? it->second->at_path(m.path) : nullptr;
        if (v != nullptr && v->is_number())
          std::printf(" %10.3f", v->number);
        else
          std::printf(" %10s", "-");
      }
      std::printf("\n");
    }
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: qserv-trend --baseline OLD.json --candidate NEW.json "
      "[--threshold 0.10]\n"
      "       qserv-trend A.json B.json [C.json ...]   (trajectory)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, cand_path;
  std::vector<std::string> positional;
  double threshold = 0.10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      base_path = v;
    } else if (arg == "--candidate") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      cand_path = v;
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      threshold = std::strtod(v, nullptr);
      if (!(threshold > 0.0) || threshold >= 1.0) {
        std::fprintf(stderr, "qserv-trend: bad threshold \"%s\"\n", v);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return usage(), 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "qserv-trend: unknown flag \"%s\"\n", arg.c_str());
      return usage(), 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (!base_path.empty() && !cand_path.empty() && positional.empty())
    return run_gate(base_path, cand_path, threshold);
  if (base_path.empty() && cand_path.empty() && positional.size() == 2)
    return run_gate(positional[0], positional[1], threshold);
  if (base_path.empty() && cand_path.empty() && positional.size() > 2)
    return run_trajectory(positional);
  return usage(), 2;
}
