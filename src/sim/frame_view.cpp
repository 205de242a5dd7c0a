#include "src/sim/frame_view.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "src/sim/world.hpp"

namespace qserv::sim {

namespace {

inline void store_u32_le(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void store_f32_le(uint8_t* p, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  store_u32_le(p, bits);
}

bool in_view(const Entity* e) {
  return e != nullptr && e->type != EntityType::kNone;
}

}  // namespace

void FrameView::write_row(size_t row, const Entity& e) {
  uint8_t st = 0;
  if (e.type == EntityType::kItem) st = e.available ? 1 : 0;
  if (e.type == EntityType::kPlayer) st = e.health > 0 ? 1 : 0;
  ids[row] = e.id;
  x[row] = e.origin.x;
  y[row] = e.origin.y;
  z[row] = e.origin.z;
  yaw[row] = e.yaw_deg;
  cluster[row] = e.cluster;
  type[row] = static_cast<uint8_t>(e.type);
  state[row] = st;
  is_player[row] = e.is_player() ? 1 : 0;
  uint8_t* rec = wire.data() + row * kRecordBytes;
  store_u32_le(rec, e.id);
  rec[kOffType] = static_cast<uint8_t>(e.type);
  store_f32_le(rec + kOffOrigin, e.origin.x);
  store_f32_le(rec + kOffOrigin + 4, e.origin.y);
  store_f32_le(rec + kOffOrigin + 8, e.origin.z);
  store_f32_le(rec + kOffYaw, e.yaw_deg);
  rec[kOffState] = st;
}

void FrameView::insert_row(size_t row, const Entity& e) {
  const auto at = static_cast<std::ptrdiff_t>(row);
  for_each_column([&](auto& v) {
    v.insert(v.begin() + at, typename std::decay_t<decltype(v)>::value_type{});
  });
  wire.insert(wire.begin() + at * std::ptrdiff_t{kRecordBytes}, kRecordBytes,
              0);
  write_row(row, e);
}

void FrameView::erase_row(size_t row) {
  const auto at = static_cast<std::ptrdiff_t>(row);
  for_each_column([&](auto& v) { v.erase(v.begin() + at); });
  const auto rec = wire.begin() + at * std::ptrdiff_t{kRecordBytes};
  wire.erase(rec, rec + std::ptrdiff_t{kRecordBytes});
}

void FrameView::refresh(const World& world, std::vector<uint8_t>& dirty) {
  const size_t n = dirty.size();
  // Dirty ids are few per frame: skip clean 8-byte words whole.
  for (size_t base = 0; base < n; base += 8) {
    const size_t end = std::min(base + 8, n);
    uint64_t word = 0;
    std::memcpy(&word, dirty.data() + base, end - base);
    if (word == 0) continue;
    for (size_t i = base; i < end; ++i) {
      if (dirty[i] == 0) continue;
      dirty[i] = 0;
      const auto id = static_cast<uint32_t>(i);
      const Entity* e = world.get(id);
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      const auto row = static_cast<size_t>(it - ids.begin());
      const bool present = it != ids.end() && *it == id;
      if (in_view(e)) {
        if (present) {
          write_row(row, *e);
        } else {
          insert_row(row, *e);
        }
      } else if (present) {
        erase_row(row);
      }
    }
  }
}

void FrameView::rebuild(const World& world) {
  size_t rows = 0;
  world.for_each_entity([&](const Entity& e) { rows += in_view(&e) ? 1 : 0; });
  for_each_column([&](auto& v) { v.resize(rows); });
  wire.resize(rows * kRecordBytes);
  size_t row = 0;
  world.for_each_entity([&](const Entity& e) {
    if (in_view(&e)) write_row(row++, e);
  });
}

}  // namespace qserv::sim
