// Microbenchmarks: lock-manager policy costs (host-time of simulated
// acquire/release cycles, plus virtual-time contention read-outs).
#include <benchmark/benchmark.h>

#include "src/core/lock_manager.hpp"
#include "src/net/protocol.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::core {
namespace {

const Aabb kWorld{{-1024, -1024, 0}, {1024, 1024, 256}};

sim::Entity player_at(const Vec3& origin) {
  sim::Entity e;
  e.id = 1;
  e.type = sim::EntityType::kPlayer;
  e.origin = origin;
  e.mins = sim::kPlayerMins;
  e.maxs = sim::kPlayerMaxs;
  e.health = 100;
  return e;
}

void BM_PlanRequest(benchmark::State& state) {
  const auto policy = static_cast<LockPolicy>(state.range(0));
  vt::SimPlatform p;
  spatial::AreanodeTree tree(kWorld, 4);
  LockManager lm(p, tree, sim::CostModel{});
  Rng rng(1);
  net::MoveCmd cmd;
  cmd.buttons = net::kButtonAttack;
  std::vector<int> requests;
  std::vector<sim::Entity> players;
  for (int i = 0; i < 256; ++i)
    players.push_back(player_at(rng.point_in(kWorld.mins, kWorld.maxs)));
  size_t i = 0;
  for (auto _ : state) {
    lm.plan_request(policy, players[i++ & 255], cmd, requests);
    benchmark::DoNotOptimize(requests.size());
  }
}
BENCHMARK(BM_PlanRequest)
    ->Arg(static_cast<int>(LockPolicy::kConservative))
    ->Arg(static_cast<int>(LockPolicy::kOptimized));

void BM_AcquireReleaseUncontended(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    vt::SimPlatform p;
    spatial::AreanodeTree tree(kWorld, 4);
    sim::CostModel free_costs;
    free_costs.lock_op = {};
    LockManager lm(p, tree, free_costs);
    state.ResumeTiming();
    p.spawn("t", vt::Domain::kServer, [&] {
      ThreadStats st;
      for (int i = 0; i < 2000; ++i) {
        LockManager::Region r;
        lm.acquire({15, 16, 17}, 0, st, r);
        lm.release(r);
      }
    });
    p.run();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_AcquireReleaseUncontended)->Unit(benchmark::kMillisecond);

void BM_ContendedRegions(benchmark::State& state) {
  // Host cost of a heavily contended simulated workload; also reports the
  // virtual-time contention it produced.
  const int threads = static_cast<int>(state.range(0));
  double wait_share = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    vt::SimPlatform p;
    spatial::AreanodeTree tree(kWorld, 4);
    LockManager lm(p, tree, sim::CostModel{});
    std::vector<ThreadStats> st(static_cast<size_t>(threads));
    state.ResumeTiming();
    for (int t = 0; t < threads; ++t) {
      std::string name = "t";
      name += std::to_string(t);
      p.spawn(name, vt::Domain::kServer, [&, t] {
        Rng rng(static_cast<uint64_t>(t) + 1);
        for (int i = 0; i < 500; ++i) {
          std::vector<int> leaves;
          const int base = 15 + static_cast<int>(rng.below(12));
          for (int k = 0; k < 4; ++k) leaves.push_back(base + k);
          LockManager::Region r;
          lm.acquire(leaves, t, st[static_cast<size_t>(t)], r);
          p.compute(vt::micros(50));
          lm.release(r);
        }
      });
    }
    p.run();
    vt::Duration wait{}, total{};
    for (const auto& s : st) wait += s.breakdown.lock_leaf;
    total = vt::Duration{p.now().ns * threads};
    wait_share = total.ns ? static_cast<double>(wait.ns) /
                                static_cast<double>(total.ns)
                          : 0.0;
  }
  state.counters["vt_lock_share"] = wait_share;
  state.SetItemsProcessed(state.iterations() * 500 * threads);
}
BENCHMARK(BM_ContendedRegions)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qserv::core
