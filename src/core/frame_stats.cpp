#include "src/core/frame_stats.hpp"

#include <cstdio>

namespace qserv::core {

Breakdown& Breakdown::operator+=(const Breakdown& o) {
  exec += o.exec;
  lock_leaf += o.lock_leaf;
  lock_parent += o.lock_parent;
  receive += o.receive;
  reply += o.reply;
  world += o.world;
  intra_wait += o.intra_wait;
  inter_wait_world += o.inter_wait_world;
  inter_wait_frame += o.inter_wait_frame;
  idle += o.idle;
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
  const auto keep = std::move(frame_trace);
  obs::Tracer* const keep_tracer = tracer;
  const int keep_track = trace_track;
  *this = ThreadStats{};
  (void)keep;  // trace from warmup is discarded
  tracer = keep_tracer;  // observability attachments survive the boundary
  trace_track = keep_track;
}

void FrameLockStats::reset() { *this = FrameLockStats{}; }

BreakdownPct to_percent(const Breakdown& b) {
  BreakdownPct out;
  const double total = static_cast<double>(b.total().ns);
  if (total <= 0.0) return out;
  out.exec = static_cast<double>(b.exec.ns) / total;
  out.lock_leaf = static_cast<double>(b.lock_leaf.ns) / total;
  out.lock_parent = static_cast<double>(b.lock_parent.ns) / total;
  out.receive = static_cast<double>(b.receive.ns) / total;
  out.reply = static_cast<double>(b.reply.ns) / total;
  out.world = static_cast<double>(b.world.ns) / total;
  out.intra_wait = static_cast<double>(b.intra_wait.ns) / total;
  out.inter_wait_world = static_cast<double>(b.inter_wait_world.ns) / total;
  out.inter_wait_frame = static_cast<double>(b.inter_wait_frame.ns) / total;
  out.idle = static_cast<double>(b.idle.ns) / total;
  return out;
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
