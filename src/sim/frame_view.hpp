// SoA entity view (DESIGN.md §15): the world's active entities packed into
// parallel id-ascending arrays, each row carrying the entity's canonical
// wire record, so the reply phase's interest sweep is a pass over
// contiguous data and per-client encoders copy record spans instead of
// re-serializing fields.
//
// Lifetime rules: the view is persistent and owned by the World. Every
// mutation of a field the view carries marks the entity's id dirty
// (World::mark_dirty), and World::refresh_view() — single-threaded, at the
// flip into the reply phase, while the world is frozen (§3.3) — patches
// only the dirty rows, inserting rows for spawns and erasing rows for
// removals. Between refreshes the view lags the world; readers use it only
// during the reply phase. Rows are indices, never pointers, and the view
// is never checkpointed (a restore marks every slot dirty).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qserv::sim {

class World;
struct Entity;

class FrameView {
 public:
  // Canonical wire record per row: the exact entity bytes a full
  // snapshot carries (id u32 | type u8 | origin 3xf32 | yaw f32 |
  // state u8, little-endian).
  static constexpr size_t kRecordBytes = 22;
  static constexpr size_t kOffType = 4;
  static constexpr size_t kOffOrigin = 5;
  static constexpr size_t kOffYaw = 17;
  static constexpr size_t kOffState = 21;

  // Brings the row of every id whose byte in `dirty` is set up to date
  // with `world` (patch, insert or erase) and clears those bytes.
  void refresh(const World& world, std::vector<uint8_t>& dirty);
  // Repacks every active non-kNone entity from scratch. The server never
  // calls it: it is the reference a refreshed view must equal
  // (view_oracle_test) and the cost a refresh saves (bench_micro_reply).
  void rebuild(const World& world);

  size_t size() const { return ids.size(); }
  const uint8_t* record(size_t row) const {
    return wire.data() + row * kRecordBytes;
  }

  // SoA rows (parallel arrays, id-ascending).
  std::vector<uint32_t> ids;
  std::vector<float> x, y, z;
  std::vector<float> yaw;
  std::vector<int32_t> cluster;  // PVS cluster, -1 = visible-to-all
  std::vector<uint8_t> type;     // raw EntityType
  std::vector<uint8_t> state;    // wire state byte (item available / alive)
  std::vector<uint8_t> is_player;
  std::vector<uint8_t> wire;  // kRecordBytes per row, canonical encoding

 private:
  // Applies `f` to every one-element-per-row array (all but `wire`).
  template <class F>
  void for_each_column(F&& f) {
    f(ids);
    f(x);
    f(y);
    f(z);
    f(yaw);
    f(cluster);
    f(type);
    f(state);
    f(is_player);
  }
  void write_row(size_t row, const Entity& e);
  void insert_row(size_t row, const Entity& e);
  void erase_row(size_t row);
};

}  // namespace qserv::sim
