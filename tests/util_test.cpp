#include <gtest/gtest.h>

#include <set>

#include "src/util/aabb.hpp"
#include "src/vthread/time.hpp"
#include "src/util/histogram.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/vec.hpp"

namespace qserv {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
  EXPECT_EQ(2.0f * a, Vec3(2, 4, 6));
  EXPECT_FLOAT_EQ(a.dot(b), 32.0f);
  EXPECT_EQ(a.cross(b), Vec3(-3, 6, -3));
}

TEST(Vec3, LengthAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_FLOAT_EQ(v.length(), 5.0f);
  EXPECT_FLOAT_EQ(v.normalized().length(), 1.0f);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, MinMaxLerp) {
  const Vec3 a{1, 5, 3}, b{2, 2, 9};
  EXPECT_EQ(min3(a, b), Vec3(1, 2, 3));
  EXPECT_EQ(max3(a, b), Vec3(2, 5, 9));
  EXPECT_EQ(lerp(a, b, 0.0f), a);
  EXPECT_EQ(lerp(a, b, 1.0f), b);
}

TEST(ViewAngles, ForwardDirections) {
  ViewAngles east{0.0f, 0.0f};
  EXPECT_NEAR(east.forward().x, 1.0f, 1e-5f);
  EXPECT_NEAR(east.forward().y, 0.0f, 1e-5f);
  ViewAngles north{90.0f, 0.0f};
  EXPECT_NEAR(north.forward().y, 1.0f, 1e-5f);
  ViewAngles down{0.0f, 90.0f};
  EXPECT_NEAR(down.forward().z, -1.0f, 1e-5f);
  // forward ⟂ right
  ViewAngles v{37.0f, 12.0f};
  EXPECT_NEAR(v.forward().dot(v.right()), 0.0f, 1e-4f);
}

TEST(Aabb, IntersectsAndContains) {
  const Aabb a{{0, 0, 0}, {10, 10, 10}};
  const Aabb b{{5, 5, 5}, {15, 15, 15}};
  const Aabb c{{11, 0, 0}, {12, 1, 1}};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  // Touching boxes intersect (closed intervals).
  const Aabb d{{10, 0, 0}, {12, 1, 1}};
  EXPECT_TRUE(a.intersects(d));
  EXPECT_TRUE(a.contains(Vec3{5, 5, 5}));
  EXPECT_FALSE(a.contains(Vec3{5, 5, 11}));
  EXPECT_TRUE(a.contains(Aabb{{1, 1, 1}, {2, 2, 2}}));
  EXPECT_FALSE(a.contains(b));
}

TEST(Aabb, SweptCoversStartAndEnd) {
  const Aabb a{{0, 0, 0}, {1, 1, 1}};
  const Aabb s = a.swept({10, -5, 0});
  EXPECT_TRUE(s.contains(a));
  EXPECT_TRUE(s.contains(Aabb{{10, -5, 0}, {11, -4, 1}}));
  EXPECT_EQ(s.mins, Vec3(0, -5, 0));
  EXPECT_EQ(s.maxs, Vec3(11, 1, 1));
}

TEST(Aabb, ExpandedAndClipped) {
  const Aabb a{{0, 0, 0}, {2, 2, 2}};
  EXPECT_EQ(a.expanded(1.0f).mins, Vec3(-1, -1, -1));
  EXPECT_EQ(a.expanded(1.0f).maxs, Vec3(3, 3, 3));
  const Aabb world{{0, 0, 0}, {1, 1, 1}};
  const Aabb clipped = a.expanded(5.0f).clipped(world);
  EXPECT_EQ(clipped.mins, world.mins);
  EXPECT_EQ(clipped.maxs, world.maxs);
}

TEST(Aabb, DirectionalBoundsReachesWorldEdge) {
  const Aabb world{{-100, -100, -100}, {100, 100, 100}};
  const Aabb player{{0, 0, 0}, {2, 2, 4}};
  const Aabb fwd = directional_bounds(player, {1, 0, 0}, world, 3.0f);
  EXPECT_FLOAT_EQ(fwd.maxs.x, 100.0f);   // reaches +x edge
  EXPECT_FLOAT_EQ(fwd.mins.x, -3.0f);    // only lateral pad behind
  EXPECT_FLOAT_EQ(fwd.mins.y, -3.0f);
  EXPECT_FLOAT_EQ(fwd.maxs.y, 5.0f);
  const Aabb diag = directional_bounds(player, {-1, 1, 0}, world, 0.0f);
  EXPECT_FLOAT_EQ(diag.mins.x, -100.0f);
  EXPECT_FLOAT_EQ(diag.maxs.y, 100.0f);
}

TEST(Rng, DeterministicAndDistinctStreams) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
  Rng f1 = Rng(7).fork(1), f2 = Rng(7).fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    const float u = r.uniform(2.0f, 4.0f);
    EXPECT_GE(u, 2.0f);
    EXPECT_LT(u, 4.0f);
  }
  // below() covers the full range eventually.
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.below(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0f));
    EXPECT_TRUE(r.chance(1.0f));
  }
}

TEST(StatAccumulator, MeanAndStddev) {
  StatAccumulator s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatAccumulator, MergeMatchesCombinedStream) {
  StatAccumulator a, b, all;
  Rng r(5);
  for (int i = 0; i < 500; ++i) {
    const double v = r.uniform(0.0f, 100.0f);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, PercentilesRoughlyCorrect) {
  Histogram h(1e-6, 1.1);
  for (int i = 1; i <= 1000; ++i) h.add(i * 0.001);  // 1ms..1s uniform
  EXPECT_NEAR(h.median(), 0.5, 0.06);
  EXPECT_NEAR(h.percentile(90), 0.9, 0.1);
  EXPECT_GE(h.percentile(100), h.percentile(50));
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(0.5);
  b.add(1.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.stats().mean(), 1.0, 1e-9);
}

TEST(Table, RenderAlignsColumns) {
  Table t("demo");
  t.header({"a", "long-col"}).row({"1", "2"}).row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long-col"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  Table t;
  t.header({"x"}).row({"a,b"});
  EXPECT_EQ(t.csv(), "x\n\"a,b\"\n");
}

TEST(Table, NumAndPctFormat) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::pct(0.256, 1), "25.6%");
}

TEST(VtTime, DurationArithmetic) {
  using namespace vt;
  EXPECT_EQ((millis(3) + micros(500)).ns, 3500000);
  EXPECT_EQ((seconds(1) - millis(250)).ns, 750000000);
  EXPECT_EQ((millis(10) * 3).ns, millis(30).ns);
  EXPECT_EQ((millis(10) * 2.5).ns, millis(25).ns);
  EXPECT_EQ((seconds(1) / 4).ns, millis(250).ns);
  EXPECT_LT(millis(1), millis(2));
  EXPECT_TRUE(Duration{}.is_zero());
}

TEST(VtTime, DurationConversions) {
  using namespace vt;
  EXPECT_DOUBLE_EQ(millis(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(micros(250).millis(), 0.25);
  EXPECT_DOUBLE_EQ(nanos(500).micros(), 0.5);
  EXPECT_EQ(seconds_d(0.0335).ns, 33500000);
}

TEST(VtTime, TimePointArithmetic) {
  using namespace vt;
  const TimePoint t0{};
  const TimePoint t1 = t0 + millis(40);
  EXPECT_EQ((t1 - t0).ns, millis(40).ns);
  EXPECT_EQ((t1 - millis(15)).ns, millis(25).ns);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(TimePoint::zero().ns, 0);
  EXPECT_GT(TimePoint::max(), t1);
  TimePoint t = t0;
  t += millis(5);
  EXPECT_EQ(t.ns, millis(5).ns);
  EXPECT_DOUBLE_EQ((t0 + seconds(2)).seconds(), 2.0);
}

}  // namespace
}  // namespace qserv
