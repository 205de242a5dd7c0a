#include "src/core/frame_stats.hpp"

#include <cstdio>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/vthread/platform.hpp"

namespace qserv::core {

vt::Duration Breakdown::total() const {
  vt::Duration sum{};
  for (const Component& c : kComponents) sum += this->*c.ms;
  return sum;
}

Breakdown& Breakdown::operator+=(const Breakdown& o) {
  for (const Component& c : kComponents) this->*c.ms += o.*c.ms;
  return *this;
}

LockStats& LockStats::operator+=(const LockStats& o) {
  requests_locked += o.requests_locked;
  lock_requests += o.lock_requests;
  distinct_leaves += o.distinct_leaves;
  relocks += o.relocks;
  parent_list_locks += o.parent_list_locks;
  return *this;
}

void ThreadStats::reset() {
  obs::Tracer* const keep_tracer = tracer;
  const int keep_track = trace_track;
  PhaseScope* const keep_scope = open_scope;
  *this = ThreadStats{};  // the warmup's frame trace is discarded too
  // Observability attachments and open scopes survive the boundary.
  tracer = keep_tracer;
  trace_track = keep_track;
  open_scope = keep_scope;
}

void FrameLockStats::reset() { *this = FrameLockStats{}; }

BreakdownPct to_percent(const Breakdown& b) {
  BreakdownPct out;
  const double total = static_cast<double>(b.total().ns);
  if (total <= 0.0) return out;
  for (const Component& c : kComponents)
    out.*c.pct = static_cast<double>((b.*c.ms).ns) / total;
  return out;
}

PhaseScope::PhaseScope(vt::Platform& platform, ThreadStats& st, Phase phase,
                       int64_t frame, obs::HistogramMetric* wait_us)
    : platform_(platform),
      st_(st),
      parent_(st.open_scope),
      phase_(phase),
      frame_(frame),
      wait_us_(wait_us) {
  st.open_scope = this;
  t0_ = platform.now();
}

PhaseScope::~PhaseScope() {
  const vt::TimePoint t1 = platform_.now();
  const vt::Duration elapsed = t1 - t0_;
  const Component& c = kComponents[static_cast<size_t>(phase_)];
  st_.breakdown.*c.ms += elapsed - children_;
  st_.open_scope = parent_;
  if (parent_ != nullptr) parent_->children_ += elapsed;
  if (wait_us_ != nullptr) wait_us_->observe(elapsed.micros());
  if (st_.tracer != nullptr && st_.tracer->enabled() && elapsed.ns > 0)
    st_.tracer->record(st_.trace_track, c.span, t0_.ns, elapsed.ns, frame_);
}

std::string format_breakdown(const Breakdown& b) {
  const BreakdownPct p = to_percent(b);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "exec %5.1f%% | lock %5.1f%% (leaf %.1f%% parent %.1f%%) | "
                "recv %4.1f%% | reply %5.1f%% | world %4.1f%% | intra-wait "
                "%5.1f%% | inter-wait %5.1f%% | idle %5.1f%%",
                p.exec * 100, p.lock() * 100, p.lock_leaf * 100,
                p.lock_parent * 100, p.receive * 100, p.reply * 100,
                p.world * 100, p.intra_wait * 100, p.inter_wait() * 100,
                p.idle * 100);
  return buf;
}

}  // namespace qserv::core
