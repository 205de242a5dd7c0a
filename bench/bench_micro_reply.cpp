// Microbenchmarks: the reply path's stages (host-time, google-benchmark).
//   * ViewRefresh/<players>/<k>: World::refresh_view() with k dirty rows;
//   * ViewRepack/<players>: a from-scratch FrameView::rebuild, for scale;
//   * Sweep/<players>: one viewer's interest sweep over the view;
//   * EncodeFull/<players>, EncodeDelta/<players>: one viewer's span
//     encode, the delta against the viewer's previous snapshot after every
//     player moved once;
//   * EventSection/<events>: a reply's event section, one span copy of
//     the records the event log encoded at the flip; EventRecords/<events>
//     encodes the same events field by field, as the flip does once per
//     frame (and as every reply did before the log held wire records).
// Worlds are the large deathmatch map with players scattered uniformly
// (items and teleporters included, as in the fig5 runs).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/net/protocol.hpp"
#include "src/sim/snapshot.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"

namespace qserv::sim {
namespace {

struct BenchWorld {
  explicit BenchWorld(int players)
      : map(spatial::make_large_deathmatch(7)),
        world(map, World::Config{4, 7}),
        rng(11) {
    for (int i = 0; i < players; ++i) {
      Entity& p = world.spawn_player("p");
      scatter(p);
      ids.push_back(p.id);
    }
    world.refresh_view();
  }

  void scatter(Entity& e) {
    const Aabb& b = map.bounds;
    e.origin = rng.point_in({b.mins.x, b.mins.y, 0}, {b.maxs.x, b.maxs.y, 40});
    e.yaw_deg = rng.uniform(0.0f, 360.0f);
    world.relink(e);
  }

  // Nudges every player by a few units, as one client frame would.
  void step_all() {
    for (const uint32_t id : ids) {
      Entity& e = *world.get(id);
      e.origin += Vec3{rng.uniform(-8.0f, 8.0f), rng.uniform(-8.0f, 8.0f), 0};
      world.relink(e);
    }
  }

  spatial::GameMap map;
  World world;
  Rng rng;
  std::vector<uint32_t> ids;
};

// `n` distinct events, and their wire records as the event log holds them.
struct EventLog {
  explicit EventLog(int n) {
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<uint32_t>(i);
      events.push_back({static_cast<uint8_t>(1 + i % 5), u, 2 * u,
                        Vec3{1.0f * u, 2.0f * u, 3.0f}});
      net::write_event(records, events.back());
    }
    span = {records.data().data(), events.size()};
  }
  std::vector<net::GameEvent> events;
  net::ByteWriter records;
  net::EventSpan span;
};

void BM_ViewRefresh(benchmark::State& state) {
  BenchWorld bw(static_cast<int>(state.range(0)));
  const auto k = static_cast<size_t>(state.range(1));
  size_t next = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < k; ++i) {
      Entity& e = *bw.world.get(bw.ids[next++ % bw.ids.size()]);
      e.yaw_deg += 1.0f;
      bw.world.mark_dirty(e.id);
    }
    bw.world.refresh_view();
    benchmark::DoNotOptimize(bw.world.view().wire.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(bw.world.view().size());
}
BENCHMARK(BM_ViewRefresh)
    ->ArgsProduct({{64, 160, 256}, {1, 4, 16}});

void BM_ViewRepack(benchmark::State& state) {
  BenchWorld bw(static_cast<int>(state.range(0)));
  FrameView view;
  for (auto _ : state) {
    view.rebuild(bw.world);
    benchmark::DoNotOptimize(view.wire.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(view.size());
}
BENCHMARK(BM_ViewRepack)->Arg(64)->Arg(160)->Arg(256);

void BM_Sweep(benchmark::State& state) {
  BenchWorld bw(static_cast<int>(state.range(0)));
  net::Snapshot snap;
  std::vector<uint32_t> rows;
  size_t next = 0, visible = 0, sweeps = 0;
  for (auto _ : state) {
    const Entity& viewer = *bw.world.get(bw.ids[next++ % bw.ids.size()]);
    const auto stats =
        sweep_snapshot(bw.world, viewer, 1, 1, 0, 2, snap, rows);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
    visible += static_cast<size_t>(stats.visible_entities);
    ++sweeps;
  }
  state.counters["visible"] =
      static_cast<double>(visible) / static_cast<double>(sweeps);
}
BENCHMARK(BM_Sweep)->Arg(64)->Arg(160)->Arg(256);

void BM_EncodeFull(benchmark::State& state) {
  BenchWorld bw(static_cast<int>(state.range(0)));
  const EventLog events(2);
  // Pre-swept viewers: the loop times the encode alone.
  std::vector<net::Snapshot> snaps(bw.ids.size());
  std::vector<std::vector<uint32_t>> rows(bw.ids.size());
  for (size_t i = 0; i < bw.ids.size(); ++i)
    sweep_snapshot(bw.world, *bw.world.get(bw.ids[i]), 1, 1, 0,
                   events.span.count, snaps[i], rows[i]);
  net::ByteWriter w;
  size_t next = 0, bytes = 0;
  for (auto _ : state) {
    const size_t i = next++ % bw.ids.size();
    w.clear();
    write_full_snapshot(snaps[i], bw.world.view(), rows[i], events.span, w);
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
    bytes += w.size();
  }
  state.counters["bytes"] =
      static_cast<double>(bytes) / static_cast<double>(next);
}
BENCHMARK(BM_EncodeFull)->Arg(64)->Arg(160)->Arg(256);

void BM_EncodeDelta(benchmark::State& state) {
  BenchWorld bw(static_cast<int>(state.range(0)));
  const EventLog events(2);
  std::vector<std::vector<net::EntityUpdate>> baselines(bw.ids.size());
  net::Snapshot snap;
  std::vector<uint32_t> scratch_rows;
  for (size_t i = 0; i < bw.ids.size(); ++i) {
    sweep_snapshot(bw.world, *bw.world.get(bw.ids[i]), 1, 1, 0,
                   events.span.count, snap, scratch_rows);
    baselines[i] = snap.entities;
  }
  bw.step_all();
  bw.world.refresh_view();
  std::vector<net::Snapshot> snaps(bw.ids.size());
  std::vector<std::vector<uint32_t>> rows(bw.ids.size());
  for (size_t i = 0; i < bw.ids.size(); ++i)
    sweep_snapshot(bw.world, *bw.world.get(bw.ids[i]), 2, 2, 0,
                   events.span.count, snaps[i], rows[i]);
  EncodeScratch scratch;
  net::ByteWriter w;
  size_t next = 0, bytes = 0;
  for (auto _ : state) {
    const size_t i = next++ % bw.ids.size();
    w.clear();
    benchmark::DoNotOptimize(
        write_delta_snapshot(snaps[i], bw.world.view(), rows[i], baselines[i],
                             1, events.span, scratch, w));
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
    bytes += w.size();
  }
  state.counters["bytes"] =
      static_cast<double>(bytes) / static_cast<double>(next);
}
BENCHMARK(BM_EncodeDelta)->Arg(64)->Arg(160)->Arg(256);

// 42 events is what a 160-player reply carries on average.
void BM_EventSection(benchmark::State& state) {
  const EventLog log(static_cast<int>(state.range(0)));
  net::ByteWriter w;
  for (auto _ : state) {
    w.clear();
    w.u16(static_cast<uint16_t>(log.span.count));
    w.bytes(log.span.data, log.span.bytes());
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(w.size());
}
BENCHMARK(BM_EventSection)->Arg(2)->Arg(42)->Arg(128);

void BM_EventRecords(benchmark::State& state) {
  const EventLog log(static_cast<int>(state.range(0)));
  net::ByteWriter w;
  for (auto _ : state) {
    w.clear();
    for (const net::GameEvent& e : log.events) net::write_event(w, e);
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(w.size());
}
BENCHMARK(BM_EventRecords)->Arg(2)->Arg(42)->Arg(128);

}  // namespace
}  // namespace qserv::sim
