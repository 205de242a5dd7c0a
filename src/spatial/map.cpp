#include "src/spatial/map.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/util/rng.hpp"

namespace qserv::spatial {

int PvsData::cluster_of(const Vec3& pos) const {
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].contains(pos)) return static_cast<int>(i);
  }
  return -1;
}

PvsData compute_pvs(const std::vector<Aabb>& clusters,
                    const CollisionWorld& world, int samples_per_axis) {
  PvsData out;
  out.clusters = clusters;
  const size_t n = clusters.size();
  out.visible.assign(n * n, 0);

  // Sample points inside each cluster at eye height: a regular grid plus
  // deterministic jittered extras, dense enough that narrow sight pencils
  // (e.g. through two offset doorways) are found. PVS must err toward
  // visible — a false "invisible" would wrongly cull a player.
  Rng rng(0x9e3779b9u);
  auto samples = [&](const Aabb& c) {
    std::vector<Vec3> pts;
    const float z = c.mins.z + 46.0f;  // standing eye height
    for (int i = 0; i < samples_per_axis; ++i) {
      for (int j = 0; j < samples_per_axis; ++j) {
        const float fx = (static_cast<float>(i) + 0.5f) /
                         static_cast<float>(samples_per_axis);
        const float fy = (static_cast<float>(j) + 0.5f) /
                         static_cast<float>(samples_per_axis);
        pts.push_back({c.mins.x + fx * (c.maxs.x - c.mins.x),
                       c.mins.y + fy * (c.maxs.y - c.mins.y), z});
      }
    }
    const int extras = samples_per_axis * samples_per_axis * 2;
    for (int k = 0; k < extras; ++k) {
      Vec3 p = rng.point_in(c.mins, c.maxs);
      p.z = z;
      pts.push_back(p);
    }
    return pts;
  };

  for (size_t a = 0; a < n; ++a) {
    out.visible[a * n + a] = 1;
    const auto pa = samples(clusters[a]);
    for (size_t b = a + 1; b < n; ++b) {
      const auto pb = samples(clusters[b]);
      bool seen = false;
      for (const auto& s : pa) {
        for (const auto& t : pb) {
          if (!world.trace_line(s, t).hit()) {
            seen = true;
            break;
          }
        }
        if (seen) break;
      }
      out.visible[a * n + b] = seen ? 1 : 0;
      out.visible[b * n + a] = seen ? 1 : 0;
    }
  }
  return out;
}

namespace {

// %.9g: 9 significant digits round-trip any binary32 exactly, so a
// parsed map is bit-identical to the one serialized. Checkpoint/replay
// geometry (traces, spawn points) depends on this.
void emit_vec(std::string& out, const Vec3& v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, " %.9g %.9g %.9g", double(v.x), double(v.y),
                double(v.z));
  out += buf;
}

}  // namespace

std::string GameMap::serialize() const {
  std::string out;
  out += "map " + name + "\n";
  out += "bounds";
  emit_vec(out, bounds.mins);
  emit_vec(out, bounds.maxs);
  out += "\n";
  for (const auto& b : brushes) {
    out += "brush";
    emit_vec(out, b.bounds.mins);
    emit_vec(out, b.bounds.maxs);
    out += "\n";
  }
  for (const auto& s : spawns) {
    out += "spawn";
    emit_vec(out, s.origin);
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.9g", double(s.yaw_deg));
    out += buf;
    out += "\n";
  }
  for (const auto& i : items) {
    out += "item ";
    out += std::to_string(static_cast<int>(i.type));
    emit_vec(out, i.origin);
    out += "\n";
  }
  for (const auto& t : teleporters) {
    out += "tele";
    emit_vec(out, t.origin);
    emit_vec(out, t.destination);
    out += "\n";
  }
  for (const auto& w : waypoints) {
    out += "wp";
    emit_vec(out, w.pos);
    for (const int n : w.neighbors) {
      out += ' ';
      out += std::to_string(n);
    }
    out += "\n";
  }
  for (const auto& c : pvs.clusters) {
    out += "cluster";
    emit_vec(out, c.mins);
    emit_vec(out, c.maxs);
    out += "\n";
  }
  const size_t n = pvs.clusters.size();
  for (size_t row = 0; row < n; ++row) {
    out += "pvs ";
    for (size_t col = 0; col < n; ++col)
      out += pvs.visible[row * n + col] ? '1' : '0';
    out += "\n";
  }
  return out;
}

bool GameMap::parse(const std::string& text, GameMap& out) {
  out = GameMap{};
  std::istringstream in(text);
  std::string line;
  bool saw_bounds = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    auto read_vec = [&ls](Vec3& v) -> bool {
      return static_cast<bool>(ls >> v.x >> v.y >> v.z);
    };
    if (kind == "map") {
      ls >> out.name;
    } else if (kind == "bounds") {
      if (!read_vec(out.bounds.mins) || !read_vec(out.bounds.maxs)) return false;
      saw_bounds = true;
    } else if (kind == "brush") {
      Brush b;
      if (!read_vec(b.bounds.mins) || !read_vec(b.bounds.maxs)) return false;
      out.brushes.push_back(b);
    } else if (kind == "spawn") {
      SpawnPoint s;
      if (!read_vec(s.origin) || !(ls >> s.yaw_deg)) return false;
      out.spawns.push_back(s);
    } else if (kind == "item") {
      int type = 0;
      ItemSpawn i;
      if (!(ls >> type) || !read_vec(i.origin)) return false;
      if (type < 0 || type > static_cast<int>(ItemType::kMegaHealth))
        return false;
      i.type = static_cast<ItemType>(type);
      out.items.push_back(i);
    } else if (kind == "tele") {
      TeleporterSpawn t;
      if (!read_vec(t.origin) || !read_vec(t.destination)) return false;
      out.teleporters.push_back(t);
    } else if (kind == "wp") {
      Waypoint w;
      if (!read_vec(w.pos)) return false;
      int n;
      while (ls >> n) w.neighbors.push_back(n);
      out.waypoints.push_back(w);
    } else if (kind == "cluster") {
      Aabb c;
      if (!read_vec(c.mins) || !read_vec(c.maxs)) return false;
      out.pvs.clusters.push_back(c);
    } else if (kind == "pvs") {
      std::string row;
      if (!(ls >> row)) return false;
      for (const char ch : row) {
        if (ch != '0' && ch != '1') return false;
        out.pvs.visible.push_back(ch == '1' ? 1 : 0);
      }
    } else {
      return false;  // unknown directive
    }
  }
  // PVS matrix, when present, must be clusters x clusters.
  const size_t n = out.pvs.clusters.size();
  if (out.pvs.visible.size() != n * n) return false;
  return saw_bounds;
}

bool GameMap::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!bounds.valid()) return fail("invalid bounds");
  const CollisionWorld world = build_collision();
  for (size_t i = 0; i < spawns.size(); ++i) {
    if (!bounds.contains(spawns[i].origin))
      return fail("spawn " + std::to_string(i) + " outside bounds");
    if (world.point_solid(spawns[i].origin))
      return fail("spawn " + std::to_string(i) + " inside solid");
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (!bounds.contains(items[i].origin))
      return fail("item " + std::to_string(i) + " outside bounds");
    if (world.point_solid(items[i].origin))
      return fail("item " + std::to_string(i) + " inside solid");
  }
  for (size_t i = 0; i < teleporters.size(); ++i) {
    if (!bounds.contains(teleporters[i].origin) ||
        !bounds.contains(teleporters[i].destination))
      return fail("teleporter " + std::to_string(i) + " outside bounds");
  }
  for (size_t i = 0; i < waypoints.size(); ++i) {
    const auto& w = waypoints[i];
    if (!bounds.contains(w.pos))
      return fail("waypoint " + std::to_string(i) + " outside bounds");
    for (const int n : w.neighbors) {
      if (n < 0 || n >= static_cast<int>(waypoints.size()))
        return fail("waypoint " + std::to_string(i) + " bad neighbor");
      const auto& back = waypoints[static_cast<size_t>(n)].neighbors;
      if (std::find(back.begin(), back.end(), static_cast<int>(i)) ==
          back.end())
        return fail("waypoint graph not symmetric at " + std::to_string(i));
    }
  }
  // PVS sanity: square, symmetric, reflexive, clusters inside bounds.
  const size_t n = pvs.clusters.size();
  if (pvs.visible.size() != n * n) return fail("pvs matrix not square");
  for (size_t a = 0; a < n; ++a) {
    if (!bounds.intersects(pvs.clusters[a]))
      return fail("pvs cluster " + std::to_string(a) + " outside bounds");
    if (pvs.visible[a * n + a] == 0)
      return fail("pvs not reflexive at " + std::to_string(a));
    for (size_t b = 0; b < n; ++b) {
      if (pvs.visible[a * n + b] != pvs.visible[b * n + a])
        return fail("pvs not symmetric");
    }
  }
  return true;
}

}  // namespace qserv::spatial
