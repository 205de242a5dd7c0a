#include "src/spatial/collision.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"

namespace qserv::spatial {

namespace {

// Open-interval overlap: boxes merely touching do NOT overlap. Used for
// solidity tests so that a trace that backed off by kTraceEpsilon is not
// reported as stuck.
bool overlaps_open(const Aabb& a, const Aabb& b) {
  return a.mins.x < b.maxs.x && a.maxs.x > b.mins.x && a.mins.y < b.maxs.y &&
         a.maxs.y > b.mins.y && a.mins.z < b.maxs.z && a.maxs.z > b.mins.z;
}

constexpr int kLeafBrushes = 8;
constexpr int kMaxDepth = 16;

}  // namespace

CollisionWorld::CollisionWorld(std::vector<Brush> brushes) {
  rebuild(std::move(brushes));
}

void CollisionWorld::rebuild(std::vector<Brush> brushes) {
  brushes_ = std::move(brushes);
  nodes_.clear();
  if (brushes_.empty()) return;
  Aabb bounds = brushes_[0].bounds;
  std::vector<uint32_t> ids(brushes_.size());
  for (uint32_t i = 0; i < brushes_.size(); ++i) {
    ids[i] = i;
    bounds = bounds.unioned(brushes_[i].bounds);
  }
  build_node(std::move(ids), bounds, 0);
}

int CollisionWorld::build_node(std::vector<uint32_t> ids, const Aabb& bounds,
                               int depth) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(index)].bounds = bounds;

  if (static_cast<int>(ids.size()) <= kLeafBrushes || depth >= kMaxDepth) {
    nodes_[static_cast<size_t>(index)].brush_ids = std::move(ids);
    return index;
  }

  // Split on the longest axis at the spatial median. Brushes straddling
  // the plane stay at this node; the rest go down.
  const Vec3 size = bounds.size();
  int axis = 0;
  if (size.y > size[axis]) axis = 1;
  if (size.z > size[axis]) axis = 2;
  const float dist = (bounds.mins[axis] + bounds.maxs[axis]) * 0.5f;

  std::vector<uint32_t> lo, hi, here;
  for (const uint32_t id : ids) {
    const Aabb& b = brushes_[id].bounds;
    if (b.maxs[axis] <= dist) {
      lo.push_back(id);
    } else if (b.mins[axis] >= dist) {
      hi.push_back(id);
    } else {
      here.push_back(id);
    }
  }
  // Degenerate split (everything straddles or lands on one side): leaf.
  if (lo.empty() && hi.empty()) {
    nodes_[static_cast<size_t>(index)].brush_ids = std::move(ids);
    return index;
  }

  Aabb lo_bounds = bounds, hi_bounds = bounds;
  lo_bounds.maxs[axis] = dist;
  hi_bounds.mins[axis] = dist;

  nodes_[static_cast<size_t>(index)].axis = axis;
  nodes_[static_cast<size_t>(index)].dist = dist;
  nodes_[static_cast<size_t>(index)].brush_ids = std::move(here);
  const int child_lo = build_node(std::move(lo), lo_bounds, depth + 1);
  nodes_[static_cast<size_t>(index)].child_lo = child_lo;
  const int child_hi = build_node(std::move(hi), hi_bounds, depth + 1);
  nodes_[static_cast<size_t>(index)].child_hi = child_hi;
  return index;
}

void CollisionWorld::query_node(int node, const Aabb& box,
                                std::vector<uint32_t>& out) const {
  const KdNode& n = nodes_[static_cast<size_t>(node)];
  for (const uint32_t id : n.brush_ids) {
    if (brushes_[id].bounds.intersects(box)) out.push_back(id);
  }
  if (n.axis < 0) return;
  if (box.mins[n.axis] <= n.dist) query_node(n.child_lo, box, out);
  if (box.maxs[n.axis] >= n.dist) query_node(n.child_hi, box, out);
}

void CollisionWorld::query(const Aabb& box, std::vector<uint32_t>& out) const {
  if (nodes_.empty()) return;
  query_node(0, box, out);
}

bool CollisionWorld::point_solid(const Vec3& p) const {
  std::vector<uint32_t> hits;
  query({p, p}, hits);
  for (const uint32_t id : hits) {
    if (brushes_[id].bounds.contains(p)) return true;
  }
  return false;
}

bool CollisionWorld::box_solid(const Vec3& origin, const Vec3& mins,
                               const Vec3& maxs) const {
  const Aabb box = Aabb::at(origin, mins, maxs);
  std::vector<uint32_t> hits;
  query(box, hits);
  for (const uint32_t id : hits) {
    if (overlaps_open(brushes_[id].bounds, box)) return true;
  }
  return false;
}

TraceResult CollisionWorld::trace_box(const Vec3& start, const Vec3& end,
                                      const Vec3& mins,
                                      const Vec3& maxs) const {
  TraceResult out;
  out.endpos = end;
  const Vec3 delta = end - start;

  // Gather candidates once over the whole swept volume, into per-thread
  // scratch (traces run concurrently and never yield mid-trace), so a
  // steady-state trace allocates nothing.
  const Aabb swept =
      Aabb::at(start, mins, maxs).swept(delta).expanded(kTraceEpsilon);
  thread_local std::vector<uint32_t> candidates;
  candidates.clear();
  query(swept, candidates);
  out.brushes_tested = static_cast<int>(candidates.size());

  float best = 1.0f;
  int hit_axis = -1;
  float hit_sign = 0.0f;

  for (const uint32_t id : candidates) {
    // Minkowski expansion: sweeping box [mins,maxs] against the brush is
    // the ray start->end against the brush grown by the box extents.
    const Aabb& b = brushes_[id].bounds;
    const Vec3 emins = b.mins - maxs;
    const Vec3 emaxs = b.maxs - mins;

    float t_enter = -1e30f, t_exit = 1.0f;
    int enter_axis = -1;
    float enter_sign = 0.0f;
    bool miss = false;
    bool inside = true;
    for (int axis = 0; axis < 3 && !miss; ++axis) {
      const float s = start[axis], d = delta[axis];
      if (s <= emins[axis] || s >= emaxs[axis]) inside = false;
      if (std::fabs(d) < 1e-12f) {
        // Motion parallel to this slab: on-face contact does not collide
        // (sliding along a surface must stay frictionless here).
        if (s <= emins[axis] || s >= emaxs[axis]) miss = true;
        continue;
      }
      float t0 = (emins[axis] - s) / d;
      float t1 = (emaxs[axis] - s) / d;
      if (t0 > t1) std::swap(t0, t1);
      if (t0 > t_enter) {
        t_enter = t0;
        enter_axis = axis;
        // The hit normal opposes the motion along the entry axis.
        enter_sign = d > 0 ? -1.0f : 1.0f;
      }
      t_exit = std::min(t_exit, t1);
      if (t_enter > t_exit) miss = true;
    }
    if (miss) continue;
    if (inside) {
      out.start_solid = true;
      continue;
    }
    // t_enter < 0 means the contact is behind the start (separating from
    // a face we touch): no hit. t_enter == 0 (entering through a face we
    // start on) blocks immediately.
    if (enter_axis >= 0 && t_enter >= 0.0f && t_enter < best &&
        t_enter < 1.0f) {
      best = t_enter;
      hit_axis = enter_axis;
      hit_sign = enter_sign;
    }
  }

  if (out.start_solid) {
    out.fraction = 0.0f;
    out.endpos = start;
    return out;
  }

  if (hit_axis >= 0) {
    // Back the hit off by kTraceEpsilon of travel distance so the box
    // never comes to rest in contact with the surface.
    const float len = delta.length();
    const float backoff = len > 0.0f ? kTraceEpsilon / len : 0.0f;
    out.fraction = std::max(0.0f, best - backoff);
    out.normal = Vec3{};
    out.normal[hit_axis] = hit_sign;
  }
  out.endpos = start + delta * out.fraction;
  return out;
}

float ray_vs_aabb(const Vec3& start, const Vec3& delta, const Aabb& box,
                  Vec3* normal_out) {
  float t_enter = -1e30f, t_exit = 1.0f;
  int enter_axis = -1;
  float enter_sign = 0.0f;
  bool inside = true;
  for (int axis = 0; axis < 3; ++axis) {
    const float s = start[axis], d = delta[axis];
    if (s < box.mins[axis] || s > box.maxs[axis]) inside = false;
    if (std::fabs(d) < 1e-12f) {
      if (s < box.mins[axis] || s > box.maxs[axis]) return -1.0f;
      continue;
    }
    float t0 = (box.mins[axis] - s) / d;
    float t1 = (box.maxs[axis] - s) / d;
    if (t0 > t1) std::swap(t0, t1);
    if (t0 > t_enter) {
      t_enter = t0;
      enter_axis = axis;
      enter_sign = d > 0 ? -1.0f : 1.0f;
    }
    t_exit = std::min(t_exit, t1);
    if (t_enter > t_exit) return -1.0f;
  }
  if (inside) {
    if (normal_out != nullptr) *normal_out = Vec3{};
    return 0.0f;
  }
  if (t_enter < 0.0f || t_enter > 1.0f || enter_axis < 0) return -1.0f;
  if (normal_out != nullptr) {
    *normal_out = Vec3{};
    (*normal_out)[enter_axis] = enter_sign;
  }
  return t_enter;
}

}  // namespace qserv::spatial
