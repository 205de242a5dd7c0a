#include "src/harness/report.hpp"

#include <cstdio>

namespace qserv::harness {

std::vector<std::string> breakdown_header(const std::string& label) {
  return {label,        "exec",      "lock-leaf", "lock-parent",
          "receive",    "reply",     "world",     "intra-wait",
          "inter-wait", "idle"};
}

std::vector<std::string> breakdown_row(const std::string& label,
                                       const ExperimentResult& r) {
  const auto& p = r.pct;
  return {label,
          Table::pct(p.exec),
          Table::pct(p.lock_leaf),
          Table::pct(p.lock_parent),
          Table::pct(p.receive),
          Table::pct(p.reply),
          Table::pct(p.world),
          Table::pct(p.intra_wait),
          Table::pct(p.inter_wait()),
          Table::pct(p.idle)};
}

std::vector<std::string> rate_row(const std::string& label,
                                  const ExperimentResult& r) {
  return {label, Table::num(r.response_rate, 0),
          Table::num(r.response_ms_mean, 1), Table::num(r.response_ms_p95, 1),
          std::to_string(r.connected)};
}

std::vector<std::string> lifecycle_header(const std::string& label) {
  return {label,      "sessions", "crashes",  "quits", "rejoins",
          "evictions", "rejected", "invariant"};
}

std::vector<std::string> lifecycle_row(const std::string& label,
                                       const ExperimentResult& r) {
  return {label,
          std::to_string(r.client_sessions),
          std::to_string(r.client_crashes),
          std::to_string(r.client_quits),
          std::to_string(r.client_rejoins),
          std::to_string(r.evictions),
          std::to_string(r.rejected_connects),
          std::to_string(r.invariant_violations)};
}

void print_summary(const std::string& label, const ExperimentResult& r) {
  std::printf(
      "%-28s rate=%7.0f replies/s  rt=%6.1f ms  "
      "lock=%4.1f%% [leaf %.1f%% par %.1f%%]  wait=%4.1f%%  "
      "idle=%4.1f%%  frames=%llu  (host %.1fs)\n",
      label.c_str(), r.response_rate, r.response_ms_mean, r.pct.lock() * 100,
      r.pct.lock_leaf * 100, r.pct.lock_parent * 100,
      (r.pct.intra_wait + r.pct.inter_wait()) * 100, r.pct.idle * 100,
      static_cast<unsigned long long>(r.frames), r.host_seconds);
  std::fflush(stdout);
}

}  // namespace qserv::harness
