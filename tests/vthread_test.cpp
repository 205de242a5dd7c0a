#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/vthread/platform.hpp"
#include "src/vthread/real_platform.hpp"
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

SimPlatform::MachineConfig cores(int n, int ht = 1, double tp = 1.25) {
  SimPlatform::MachineConfig mc;
  mc.cores = n;
  mc.ht_per_core = ht;
  mc.ht_throughput = tp;
  return mc;
}

TEST(SimPlatform, TimeStartsAtZeroAndAdvancesWithSleep) {
  SimPlatform p;
  TimePoint woke{};
  p.spawn("t", Domain::kServer, [&] {
    EXPECT_EQ(p.now(), TimePoint::zero());
    p.sleep_for(millis(30));
    woke = p.now();
  });
  p.run();
  EXPECT_EQ(woke.ns, millis(30).ns);
}

TEST(SimPlatform, ComputeOccupiesOneCpuForItsDuration) {
  SimPlatform p(cores(1));
  TimePoint done{};
  p.spawn("t", Domain::kServer, [&] {
    p.compute(millis(5));
    done = p.now();
  });
  p.run();
  EXPECT_EQ(done.ns, millis(5).ns);
}

TEST(SimPlatform, IndependentCoresComputeInParallel) {
  SimPlatform p(cores(4));
  std::vector<TimePoint> done(4);
  for (int i = 0; i < 4; ++i) {
    p.spawn(numbered("t", i), Domain::kServer, [&, i] {
      p.compute(millis(10));
      done[static_cast<size_t>(i)] = p.now();
    });
  }
  p.run();
  for (const auto& t : done) EXPECT_EQ(t.ns, millis(10).ns);
}

TEST(SimPlatform, OversubscribedCpuQueuesFifo) {
  SimPlatform p(cores(1));
  std::vector<std::pair<std::string, TimePoint>> finish;
  for (int i = 0; i < 3; ++i) {
    p.spawn(numbered("t", i), Domain::kServer, [&, i] {
      p.compute(millis(10));
      finish.emplace_back(numbered("t", i), p.now());
    });
  }
  p.run();
  ASSERT_EQ(finish.size(), 3u);
  // Spawn order = queue order on a single CPU.
  EXPECT_EQ(finish[0].first, "t0");
  EXPECT_EQ(finish[0].second.ns, millis(10).ns);
  EXPECT_EQ(finish[1].first, "t1");
  EXPECT_EQ(finish[1].second.ns, millis(20).ns);
  EXPECT_EQ(finish[2].second.ns, millis(30).ns);
}

TEST(SimPlatform, HyperThreadingSharesACore) {
  // 1 core x 2 HT, combined throughput 1.25: two equal 1 ms jobs started
  // together each run at 0.625x and finish at 1.6 ms.
  SimPlatform p(cores(1, 2, 1.25));
  std::vector<TimePoint> done(2);
  for (int i = 0; i < 2; ++i) {
    p.spawn(numbered("t", i), Domain::kServer, [&, i] {
      p.compute(millis(1));
      done[static_cast<size_t>(i)] = p.now();
    });
  }
  p.run();
  EXPECT_NEAR(static_cast<double>(done[0].ns), 1.6e6, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1].ns), 1.6e6, 2.0);
}

TEST(SimPlatform, HyperThreadSiblingSpeedsUpWhenFreed) {
  // A needs 2 ms, B needs 1 ms, same core. B finishes at 1.6 ms; A then has
  // 1 ms of work left at full speed -> 2.6 ms.
  SimPlatform p(cores(1, 2, 1.25));
  TimePoint done_a{}, done_b{};
  p.spawn("a", Domain::kServer, [&] {
    p.compute(millis(2));
    done_a = p.now();
  });
  p.spawn("b", Domain::kServer, [&] {
    p.compute(millis(1));
    done_b = p.now();
  });
  p.run();
  EXPECT_NEAR(static_cast<double>(done_b.ns), 1.6e6, 2.0);
  EXPECT_NEAR(static_cast<double>(done_a.ns), 2.6e6, 4.0);
}

TEST(SimPlatform, PrefersIdleCoresOverHyperThreadSiblings) {
  // 2 cores x 2 HT: two jobs must land on different cores and run at full
  // speed.
  SimPlatform p(cores(2, 2, 1.25));
  std::vector<TimePoint> done(2);
  for (int i = 0; i < 2; ++i) {
    p.spawn(numbered("t", i), Domain::kServer, [&, i] {
      p.compute(millis(4));
      done[static_cast<size_t>(i)] = p.now();
    });
  }
  p.run();
  EXPECT_EQ(done[0].ns, millis(4).ns);
  EXPECT_EQ(done[1].ns, millis(4).ns);
}

TEST(SimPlatform, ClientFarmComputeDoesNotUseServerCpus) {
  SimPlatform p(cores(1));
  TimePoint server_done{}, client_done{};
  p.spawn("server", Domain::kServer, [&] {
    p.compute(millis(10));
    server_done = p.now();
  });
  p.spawn("client", Domain::kClientFarm, [&] {
    p.compute(millis(10));
    client_done = p.now();
  });
  p.run();
  // Both finish at 10 ms: the client never contends for the server CPU.
  EXPECT_EQ(server_done.ns, millis(10).ns);
  EXPECT_EQ(client_done.ns, millis(10).ns);
}

TEST(SimPlatform, MutexProvidesMutualExclusionAndFifoOrder) {
  SimPlatform p(cores(4));
  auto mu = p.make_mutex("m");
  std::vector<int> order;
  int in_critical = 0;
  for (int i = 0; i < 4; ++i) {
    p.spawn(numbered("t", i), Domain::kServer, [&, i] {
      // Stagger arrivals so the FIFO order is well defined.
      p.sleep_for(micros(i * 10));
      mu->lock();
      EXPECT_EQ(++in_critical, 1);
      order.push_back(i);
      p.compute(millis(1));
      --in_critical;
      mu->unlock();
    });
  }
  p.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(mu->acquisitions(), 4u);
  EXPECT_EQ(mu->contended_acquisitions(), 3u);
  EXPECT_GT(mu->total_wait().ns, 0);
}

TEST(SimPlatform, MutexWaitTimeIsMeasuredInVirtualTime) {
  SimPlatform p(cores(2));
  auto mu = p.make_mutex("m");
  Duration waited{};
  p.spawn("holder", Domain::kServer, [&] {
    mu->lock();
    p.compute(millis(7));
    mu->unlock();
  });
  p.spawn("waiter", Domain::kServer, [&] {
    p.sleep_for(millis(1));
    const TimePoint t0 = p.now();
    mu->lock();
    waited = p.now() - t0;
    mu->unlock();
  });
  p.run();
  EXPECT_EQ(waited.ns, millis(6).ns);
  EXPECT_EQ(mu->total_wait().ns, millis(6).ns);
}

TEST(SimPlatform, TryLockNeverBlocks) {
  SimPlatform p(cores(1));
  auto mu = p.make_mutex("m");
  bool second_got = true;
  p.spawn("a", Domain::kServer, [&] {
    ASSERT_TRUE(mu->try_lock());
    p.sleep_for(millis(1));
    mu->unlock();
  });
  p.spawn("b", Domain::kServer, [&] {
    second_got = mu->try_lock();
    if (second_got) mu->unlock();
  });
  p.run();
  EXPECT_FALSE(second_got);
}

TEST(SimPlatform, CondVarSignalWakesInFifoOrder) {
  SimPlatform p(cores(4));
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  std::vector<int> woke;
  int ready = 0;
  for (int i = 0; i < 3; ++i) {
    p.spawn(numbered("w", i), Domain::kServer, [&, i] {
      p.sleep_for(micros(i));
      mu->lock();
      ++ready;
      cv->wait(*mu);
      woke.push_back(i);
      mu->unlock();
    });
  }
  p.spawn("signaller", Domain::kServer, [&] {
    p.sleep_for(millis(1));
    for (int i = 0; i < 3; ++i) {
      mu->lock();
      cv->signal();
      mu->unlock();
      p.sleep_for(millis(1));
    }
  });
  p.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ready, 3);
}

TEST(SimPlatform, CondVarBroadcastWakesAll) {
  SimPlatform p(cores(4));
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    p.spawn(numbered("w", i), Domain::kServer, [&] {
      mu->lock();
      cv->wait(*mu);
      ++woke;
      mu->unlock();
    });
  }
  p.spawn("b", Domain::kServer, [&] {
    p.sleep_for(millis(1));
    mu->lock();
    cv->broadcast();
    mu->unlock();
  });
  p.run();
  EXPECT_EQ(woke, 5);
}

TEST(SimPlatform, CondVarWaitUntilTimesOut) {
  SimPlatform p(cores(1));
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  bool signaled = true;
  TimePoint woke{};
  p.spawn("w", Domain::kServer, [&] {
    mu->lock();
    signaled = cv->wait_until(*mu, TimePoint{} + millis(3));
    woke = p.now();
    mu->unlock();
  });
  p.run();
  EXPECT_FALSE(signaled);
  EXPECT_EQ(woke.ns, millis(3).ns);
}

TEST(SimPlatform, CondVarSignalBeatsLaterDeadline) {
  SimPlatform p(cores(2));
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  bool signaled = false;
  TimePoint woke{};
  p.spawn("w", Domain::kServer, [&] {
    mu->lock();
    signaled = cv->wait_until(*mu, TimePoint{} + millis(100));
    woke = p.now();
    mu->unlock();
  });
  p.spawn("s", Domain::kServer, [&] {
    p.sleep_for(millis(2));
    mu->lock();
    cv->signal();
    mu->unlock();
  });
  p.run();
  EXPECT_TRUE(signaled);
  EXPECT_EQ(woke.ns, millis(2).ns);
}

TEST(SimPlatform, TimedOutWaiterDoesNotStealLaterSignal) {
  SimPlatform p(cores(2));
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  bool late_waiter_signaled = false;
  p.spawn("timeout", Domain::kServer, [&] {
    mu->lock();
    EXPECT_FALSE(cv->wait_until(*mu, TimePoint{} + millis(1)));
    mu->unlock();
  });
  p.spawn("waiter", Domain::kServer, [&] {
    p.sleep_for(millis(2));
    mu->lock();
    late_waiter_signaled = cv->wait_until(*mu, TimePoint{} + millis(10));
    mu->unlock();
  });
  p.spawn("signaller", Domain::kServer, [&] {
    p.sleep_for(millis(5));
    mu->lock();
    cv->signal();
    mu->unlock();
  });
  p.run();
  EXPECT_TRUE(late_waiter_signaled);
}

TEST(SimPlatform, CallAfterRunsCallbackAtRequestedTime) {
  SimPlatform p;
  TimePoint fired{};
  p.call_after(millis(12), [&] { fired = p.now(); });
  p.spawn("t", Domain::kServer, [&] { p.sleep_for(millis(20)); });
  p.run();
  EXPECT_EQ(fired.ns, millis(12).ns);
}

TEST(SimPlatform, RunUntilStopsAtDeadline) {
  SimPlatform p(cores(1));
  int ticks = 0;
  p.spawn("t", Domain::kServer, [&] {
    for (int i = 0; i < 100; ++i) {
      p.sleep_for(millis(1));
      ++ticks;
    }
  });
  const bool more = p.run_until(TimePoint{} + millis(10) + micros(500));
  EXPECT_TRUE(more);
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(p.now().ns, (millis(10) + micros(500)).ns);
  p.run();  // drain the rest
  EXPECT_EQ(ticks, 100);
}

TEST(SimPlatform, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimPlatform p(cores(2, 2, 1.3));
    auto mu = p.make_mutex("m");
    std::vector<int64_t> trace;
    for (int i = 0; i < 6; ++i) {
      p.spawn(numbered("t", i), Domain::kServer, [&, i] {
        for (int k = 0; k < 20; ++k) {
          p.compute(micros(100 + 37 * ((i + k) % 5)));
          mu->lock();
          trace.push_back(p.now().ns * 31 + i);
          p.compute(micros(10));
          mu->unlock();
          p.sleep_for(micros(50 * (i % 3)));
        }
      });
    }
    p.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimPlatform, YieldReordersEqualTimeFibers) {
  SimPlatform p(cores(1));
  std::vector<int> order;
  p.spawn("a", Domain::kServer, [&] {
    p.yield();
    order.push_back(1);
  });
  p.spawn("b", Domain::kServer, [&] { order.push_back(2); });
  p.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimPlatform, SpawnFromInsideAFiberWorks) {
  SimPlatform p(cores(2));
  TimePoint child_done{};
  p.spawn("parent", Domain::kServer, [&] {
    p.sleep_for(millis(1));
    p.spawn("child", Domain::kServer, [&] {
      p.compute(millis(2));
      child_done = p.now();
    });
    p.sleep_for(millis(5));
  });
  p.run();
  EXPECT_EQ(child_done.ns, millis(3).ns);
}

TEST(SimPlatform, EventCountIsStable) {
  // The processed-event count is part of the deterministic fingerprint.
  auto count = [] {
    SimPlatform p(cores(2));
    for (int i = 0; i < 4; ++i)
      p.spawn("t", Domain::kServer, [&] {
        for (int k = 0; k < 10; ++k) p.compute(micros(100));
      });
    p.run();
    return p.events_processed();
  };
  EXPECT_EQ(count(), count());
}

TEST(SimPlatformDeathTest, DeadlockIsDetectedAndReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimPlatform p;
        auto a = p.make_mutex("a");
        auto b = p.make_mutex("b");
        p.spawn("t1", Domain::kServer, [&] {
          a->lock();
          p.sleep_for(millis(1));
          b->lock();  // deadlock
          b->unlock();
          a->unlock();
        });
        p.spawn("t2", Domain::kServer, [&] {
          b->lock();
          p.sleep_for(millis(1));
          a->lock();
          a->unlock();
          b->unlock();
        });
        p.run();
      },
      "deadlock");
}

TEST(SimPlatformDeathTest, RecursiveLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimPlatform p;
        auto m = p.make_mutex("m");
        p.spawn("t", Domain::kServer, [&] {
          m->lock();
          m->lock();
        });
        p.run();
      },
      "recursive");
}

TEST(RealPlatform, BasicThreadingAndTime) {
  RealPlatform p;
  std::atomic<int> sum{0};
  for (int i = 0; i < 4; ++i)
    p.spawn("t", Domain::kServer, [&] { sum.fetch_add(1); });
  p.join_all();
  EXPECT_EQ(sum.load(), 4);
  EXPECT_GE(p.now().ns, 0);
}

TEST(RealPlatform, MutexAndCondVarInterop) {
  RealPlatform p;
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  bool flag = false;
  int observed = -1;
  p.spawn("w", Domain::kServer, [&] {
    LockGuard g(*mu);
    while (!flag) cv->wait(*mu);
    observed = 1;
  });
  p.spawn("s", Domain::kServer, [&] {
    p.sleep_for(millis(5));
    LockGuard g(*mu);
    flag = true;
    cv->broadcast();
  });
  p.join_all();
  EXPECT_EQ(observed, 1);
  EXPECT_GE(mu->acquisitions(), 2u);
}

TEST(RealPlatform, WaitUntilTimesOut) {
  RealPlatform p;
  auto mu = p.make_mutex("m");
  auto cv = p.make_condvar();
  bool signaled = true;
  p.spawn("w", Domain::kServer, [&] {
    LockGuard g(*mu);
    signaled = cv->wait_until(*mu, p.now() + millis(10));
  });
  p.join_all();
  EXPECT_FALSE(signaled);
}

TEST(RealPlatform, CallAfterFires) {
  RealPlatform p;
  std::atomic<bool> fired{false};
  p.call_after(millis(5), [&] { fired = true; });
  p.spawn("t", Domain::kServer, [&] { p.sleep_for(millis(30)); });
  p.join_all();
  EXPECT_TRUE(fired.load());
}

}  // namespace
}  // namespace qserv::vt
