// Stress and property tests for the virtual-time platform: determinism
// across machine shapes, CPU-time conservation, hyper-threading
// throughput bounds, and synchronization under heavy fiber churn.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "src/util/rng.hpp"
#include "src/vthread/sim_platform.hpp"

namespace qserv::vt {
namespace {

// "<prefix><n>". Built by appending: GCC 12 at -O3 flags
// `"lit" + std::to_string(n)` with -Wrestrict.
std::string numbered(const char* prefix, int n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

struct MachineShape {
  int cores;
  int ht;
  double tp;
};

class MachineSweep : public ::testing::TestWithParam<MachineShape> {};

// Property: on any machine shape, a mixed workload of compute, sleeps and
// locking is bit-deterministic across runs.
TEST_P(MachineSweep, MixedWorkloadIsDeterministic) {
  const auto shape = GetParam();
  auto run_once = [&] {
    SimPlatform::MachineConfig mc;
    mc.cores = shape.cores;
    mc.ht_per_core = shape.ht;
    mc.ht_throughput = shape.tp;
    SimPlatform p(mc);
    auto mu = p.make_mutex("m");
    auto cv = p.make_condvar();
    int turnstile = 0;
    uint64_t fingerprint = 0;  // unsigned: it wraps by design
    for (int i = 0; i < 10; ++i) {
      p.spawn(numbered("w", i), Domain::kServer, [&, i] {
        Rng rng(static_cast<uint64_t>(i) + 1);
        for (int k = 0; k < 50; ++k) {
          p.compute(micros(rng.range(10, 200)));
          mu->lock();
          fingerprint = fingerprint * 31 +
                        static_cast<uint64_t>(p.now().ns % 1009 + i);
          ++turnstile;
          cv->signal();
          mu->unlock();
          if (rng.chance(0.3f)) p.sleep_for(micros(rng.range(1, 100)));
          if (rng.chance(0.1f)) p.yield();
        }
      });
    }
    p.run();
    return std::pair{fingerprint, p.events_processed()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Property: total computed virtual CPU time never exceeds
// wall-time x peak machine throughput.
TEST_P(MachineSweep, CpuThroughputIsBounded) {
  const auto shape = GetParam();
  SimPlatform::MachineConfig mc;
  mc.cores = shape.cores;
  mc.ht_per_core = shape.ht;
  mc.ht_throughput = shape.tp;
  SimPlatform p(mc);
  const int fibers = shape.cores * shape.ht + 3;  // oversubscribe
  const Duration work = millis(20);
  for (int i = 0; i < fibers; ++i) {
    p.spawn(numbered("w", i), Domain::kServer,
            [&] { p.compute(work); });
  }
  p.run();
  const double total_work =
      static_cast<double>(work.ns) * static_cast<double>(fibers);
  const double peak_throughput =
      static_cast<double>(shape.cores) * (shape.ht > 1 ? shape.tp : 1.0);
  const double min_wall = total_work / peak_throughput;
  // Wall time can't beat the machine's peak throughput...
  EXPECT_GE(static_cast<double>(p.now().ns), min_wall * 0.999);
  // ...and with a saturating workload it should be close to it.
  EXPECT_LE(static_cast<double>(p.now().ns), min_wall * 1.6);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MachineSweep,
                         ::testing::Values(MachineShape{1, 1, 1.0},
                                           MachineShape{1, 2, 1.25},
                                           MachineShape{2, 1, 1.0},
                                           MachineShape{2, 2, 1.3},
                                           MachineShape{4, 2, 1.25},
                                           MachineShape{8, 1, 1.0}));

TEST(SimPlatformStress, ManyFibersManyLocks) {
  SimPlatform p;
  constexpr int kFibers = 100;
  constexpr int kLocks = 8;
  std::vector<std::unique_ptr<Mutex>> mus;
  for (int i = 0; i < kLocks; ++i)
    mus.push_back(p.make_mutex(numbered("m", i)));
  std::vector<int> counters(kLocks, 0);
  for (int f = 0; f < kFibers; ++f) {
    p.spawn(numbered("f", f), Domain::kServer, [&, f] {
      Rng rng(static_cast<uint64_t>(f) * 7 + 1);
      for (int k = 0; k < 40; ++k) {
        // Lock a run of mutexes in ascending order (deadlock-free).
        const int first = static_cast<int>(rng.below(kLocks));
        const int span = 1 + static_cast<int>(rng.below(3));
        for (int m = first; m < std::min(first + span, kLocks); ++m)
          mus[static_cast<size_t>(m)]->lock();
        p.compute(micros(5));
        for (int m = first; m < std::min(first + span, kLocks); ++m)
          ++counters[static_cast<size_t>(m)];
        for (int m = std::min(first + span, kLocks) - 1; m >= first; --m)
          mus[static_cast<size_t>(m)]->unlock();
      }
    });
  }
  p.run();
  const int total = std::accumulate(counters.begin(), counters.end(), 0);
  EXPECT_GT(total, kFibers * 40);  // every iteration touched >= 1 lock
}

TEST(SimPlatformStress, SleepOrderingIsExact) {
  SimPlatform p;
  std::vector<int> order;
  Rng rng(4);
  std::vector<int64_t> delays;
  for (int i = 0; i < 50; ++i) delays.push_back(rng.range(1, 100000));
  for (int i = 0; i < 50; ++i) {
    p.spawn(numbered("s", i), Domain::kServer, [&, i] {
      p.sleep_until(TimePoint{delays[static_cast<size_t>(i)]});
      order.push_back(i);
    });
  }
  p.run();
  // Wake order must match sorted delay order (ties by spawn order).
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return delays[static_cast<size_t>(a)] < delays[static_cast<size_t>(b)];
  });
  EXPECT_EQ(order, expected);
}

TEST(SimPlatformStress, ComputeSlicesInterleaveFairlyOnOneCpu) {
  SimPlatform::MachineConfig mc;
  mc.cores = 1;
  mc.ht_per_core = 1;
  SimPlatform p(mc);
  // Two fibers alternating small compute slices: FIFO queueing should
  // interleave them rather than starving one.
  std::vector<int> sequence;
  for (int f = 0; f < 2; ++f) {
    p.spawn(numbered("f", f), Domain::kServer, [&, f] {
      for (int k = 0; k < 10; ++k) {
        p.compute(micros(10));
        sequence.push_back(f);
      }
    });
  }
  p.run();
  int switches = 0;
  for (size_t i = 1; i < sequence.size(); ++i)
    switches += sequence[i] != sequence[i - 1] ? 1 : 0;
  EXPECT_GE(switches, 10);  // strict alternation would give 19
}

TEST(SimPlatformStress, HyperThreadThroughputMatchesModelExactly) {
  // Two saturating fibers on one 2-way HT core for T seconds must retire
  // exactly ht_throughput x T of nominal work.
  SimPlatform::MachineConfig mc;
  mc.cores = 1;
  mc.ht_per_core = 2;
  mc.ht_throughput = 1.25;
  SimPlatform p(mc);
  Duration done[2] = {};
  for (int f = 0; f < 2; ++f) {
    p.spawn(numbered("f", f), Domain::kServer, [&, f] {
      while (p.now() < TimePoint{} + seconds(1)) {
        p.compute(micros(100));
        done[f] += micros(100);
      }
    });
  }
  p.run();
  const double total = static_cast<double>((done[0] + done[1]).ns);
  EXPECT_NEAR(total, 1.25e9, 2e6);  // 1.25 seconds of nominal work
  // And it was split evenly between the symmetric contexts.
  EXPECT_NEAR(static_cast<double>(done[0].ns),
              static_cast<double>(done[1].ns), 4e5);
}

TEST(SimPlatformStress, EventLimitGuardsRunawayLoops) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimPlatform p;
        p.set_event_limit(1000);
        p.spawn("spin", Domain::kServer, [&] {
          for (;;) p.yield();
        });
        p.run();
      },
      "event limit");
}

TEST(SimPlatformStress, CondVarHerdWakesExactlyOnce) {
  SimPlatform p;
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  int woken = 0;
  int token = 0;
  for (int i = 0; i < 20; ++i) {
    p.spawn(numbered("w", i), Domain::kServer, [&] {
      mu->lock();
      while (token == 0) cv->wait(*mu);
      --token;
      ++woken;
      mu->unlock();
    });
  }
  p.spawn("post", Domain::kServer, [&] {
    for (int i = 0; i < 20; ++i) {
      p.sleep_for(micros(100));
      mu->lock();
      ++token;
      cv->signal();
      mu->unlock();
    }
  });
  p.run();
  EXPECT_EQ(woken, 20);
}

}  // namespace
}  // namespace qserv::vt
