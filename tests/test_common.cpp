// Unit tests for src/common: RNG, samplers, statistics, latency models.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/clock.hpp"
#include "src/common/latency_model.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace acn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 8000; ++i) ++counts[rng.uniform(0, 7)];
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [value, count] : counts) EXPECT_GT(count, 800);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  // Child must not replay the parent's stream.
  Rng parent2(5);
  (void)parent2();  // same draw the split consumed
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (child() == parent2()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(1);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  for (const auto& [value, count] : counts)
    EXPECT_NEAR(count / 50000.0, 0.1, 0.02);
}

TEST(Zipf, HighThetaConcentratesOnHead) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(2);
  int head = 0;
  for (int i = 0; i < 10000; ++i)
    if (zipf(rng) < 5) ++head;
  EXPECT_GT(head, 5000);
}

TEST(Zipf, RejectsBadArgs) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(Nurand, StaysInRange) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const auto v = nurand(rng, 255, 100, 300, 57);
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 300u);
  }
}

TEST(LatencyHistogram, PercentilesBracketValues) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.percentile(0.0), 2u);
  EXPECT_GE(h.percentile(1.0), 512u);
  const auto p50 = h.percentile(0.5);
  EXPECT_GE(p50, 256u);
  EXPECT_LE(p50, 1024u);
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(IntervalSeries, CountsPerSlotAndIgnoresOutOfRange) {
  IntervalSeries s(3);
  s.add(0);
  s.add(1, 5);
  s.add(2);
  s.add(7);  // ignored
  EXPECT_EQ(s.at(0), 1u);
  EXPECT_EQ(s.at(1), 5u);
  EXPECT_EQ(s.at(2), 1u);
  EXPECT_EQ(s.at(7), 0u);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[1], 5u);
}

TEST(LatencyModel, ZeroAndLoopback) {
  ZeroLatency zero;
  EXPECT_EQ(zero.delay(0, 1, 100).count(), 0);
  FixedLatency fixed(Nanos{1000}, Nanos{10});
  EXPECT_EQ(fixed.delay(2, 2, 100).count(), 0);  // loopback free
  EXPECT_EQ(fixed.delay(0, 1, 0).count(), 1000);
  EXPECT_EQ(fixed.delay(0, 1, 2048).count(), 1020);
}

TEST(LatencyModel, JitterBounded) {
  JitterLatency jitter(Nanos{1000}, Nanos{500}, 7);
  for (int i = 0; i < 200; ++i) {
    const auto d = jitter.delay(0, 1, 64).count();
    EXPECT_GE(d, 1000);
    EXPECT_LE(d, 1500);
  }
}

TEST(Clock, StopwatchAdvances) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds{2});
  EXPECT_GT(watch.elapsed_ns(), 1'000'000u);
}

}  // namespace
}  // namespace acn
