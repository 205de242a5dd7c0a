// Spatial shard assignment: the map's X extent is cut into `shards` equal
// slabs; a position belongs to the slab containing its x coordinate. The
// router is pure geometry — it never touches an engine — so both the
// harness (initial join placement) and each shard's master window
// (boundary-crossing detection) share one authority on who owns where.
#pragma once

#include "src/util/aabb.hpp"

namespace qserv::shard {

class ShardRouter {
 public:
  // `margin` is the hysteresis band of home_for(): a resident of shard i
  // keeps its home until it is more than `margin` units past the slab
  // edge, so a player fighting along the line does not ping-pong between
  // engines every frame.
  ShardRouter(const Aabb& bounds, int shards, float margin);

  int shards() const { return shards_; }
  float margin() const { return margin_; }

  // The slab containing `p` (clamped to [0, shards)).
  int shard_for(const Vec3& p) const;

  // Where a session homed on `current` should live given its position:
  // `current` while inside the slab or within the margin band,
  // shard_for(p) once clearly beyond it.
  int home_for(int current, const Vec3& p) const;

  // The slab's x interval (diagnostics / tests).
  float slab_lo(int shard) const;
  float slab_hi(int shard) const;

 private:
  float lo_;
  float width_;  // per-slab
  int shards_;
  float margin_;
};

}  // namespace qserv::shard
