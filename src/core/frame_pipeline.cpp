#include "src/core/frame_pipeline.hpp"

#include <algorithm>

namespace qserv::core {

FramePipeline::FramePipeline(const PipelineContext& ctx) : ctx_(ctx) {
  arenas_.reserve(static_cast<size_t>(ctx_.cfg.threads));
  for (int i = 0; i < ctx_.cfg.threads; ++i)
    arenas_.push_back(std::make_unique<FrameArena>());
}

void FramePipeline::restore(uint64_t frame, uint64_t next_order) {
  frames_ = frame;
  order_ctr_.store(next_order, std::memory_order_relaxed);
  last_world_ = ctx_.platform.now();
}

void WorldPhase::run(ThreadStats& st) {
  PipelineContext& ctx = pipe_.ctx_;
  PhaseScope world(ctx.platform, st, Phase::kWorld,
                   static_cast<int64_t>(pipe_.frames_));
  const vt::TimePoint t0 = world.start();
  vt::Duration dt = t0 - pipe_.last_world_;
  // Clamp: the first frame (and long idle gaps) must not produce a huge
  // physics step.
  dt.ns = std::clamp<int64_t>(dt.ns, 0, vt::millis(100).ns);
  pipe_.last_world_ = t0;
  pipe_.last_world_t0_ = t0;
  pipe_.last_world_dt_ = dt;
  // The tick is a journaled, serialization-indexed mutation (the recovery
  // hook draws the index), so replay interleaves it correctly with
  // lifecycle ops applied between frames.
  ctx.hooks.world_tick(static_cast<int>(&st - ctx.stats.data()), t0, dt);
  ctx.world.world_phase(t0, dt, ctx.global_events);
}

}  // namespace qserv::core
