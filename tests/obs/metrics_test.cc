#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/span.h"

namespace pmjoin {
namespace obs {
namespace {

/// Scoped session without a disk: arms the metric macros for one test and
/// guarantees the global flag is dropped (and events drained) on exit so
/// tests cannot leak state into each other.
class ScopedSession {
 public:
  ScopedSession() { Tracer::Get().StartSession(nullptr); }
  ~ScopedSession() {
    Tracer::Get().StopSession();
    Tracer::Get().TakeEvents();
  }
};

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  EXPECT_EQ(registry.counter("test.same"), registry.counter("test.same"));
  EXPECT_EQ(registry.gauge("test.same_g"), registry.gauge("test.same_g"));
  EXPECT_EQ(registry.histogram("test.same_h"),
            registry.histogram("test.same_h"));
  EXPECT_NE(registry.counter("test.same"), registry.counter("test.other"));
}

TEST(MetricsRegistryTest, CounterAccumulatesAndResets) {
  Counter* counter = MetricsRegistry::Get().counter("test.counter");
  counter->Reset();
  counter->Add(3);
  counter->Add(1);
  EXPECT_EQ(counter->Total(), 4u);
  counter->Reset();
  EXPECT_EQ(counter->Total(), 0u);
}

TEST(MetricsRegistryTest, CounterSumsAcrossThreads) {
  Counter* counter = MetricsRegistry::Get().counter("test.sharded");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Total(), uint64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  Gauge* gauge = MetricsRegistry::Get().gauge("test.gauge");
  gauge->Set(7);
  gauge->Set(-2);
  EXPECT_EQ(gauge->Value(), -2);
  gauge->Reset();
  EXPECT_EQ(gauge->Value(), 0);
}

TEST(MetricsRegistryTest, HistogramBucketsByBitWidth) {
  Histogram* histogram = MetricsRegistry::Get().histogram("test.hist");
  histogram->Reset();
  histogram->Record(0);   // bucket 0
  histogram->Record(1);   // bucket 1
  histogram->Record(2);   // bucket 2
  histogram->Record(3);   // bucket 2
  histogram->Record(9);   // bucket 4
  EXPECT_EQ(histogram->TotalCount(), 5u);
  const auto buckets = histogram->BucketCounts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 0u);
  EXPECT_EQ(buckets[4], 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.counter("test.zzz");
  registry.counter("test.aaa");
  const auto rows = registry.Snapshot();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].name, rows[i].name);
  }
}

TEST(MetricsMacroTest, MacrosAreInertWithoutSession) {
  ASSERT_FALSE(ObsEnabled());
  Counter* counter = MetricsRegistry::Get().counter("test.macro_inert");
  counter->Reset();
  for (int i = 0; i < 10; ++i) PMJOIN_METRIC_COUNT("test.macro_inert", 5);
  EXPECT_EQ(counter->Total(), 0u);
}

TEST(MetricsMacroTest, MacrosRecordInsideSession) {
  ScopedSession session;
  ASSERT_TRUE(ObsEnabled());
  PMJOIN_METRIC_COUNT("test.macro_live", 2);
  PMJOIN_METRIC_COUNT("test.macro_live", 3);
  PMJOIN_METRIC_GAUGE_SET("test.macro_gauge", 11);
  PMJOIN_METRIC_RECORD("test.macro_hist", 4);
  EXPECT_EQ(MetricsRegistry::Get().counter("test.macro_live")->Total(), 5u);
  EXPECT_EQ(MetricsRegistry::Get().gauge("test.macro_gauge")->Value(), 11);
  EXPECT_EQ(MetricsRegistry::Get().histogram("test.macro_hist")->TotalCount(),
            1u);
}

TEST(MetricsMacroTest, SessionStartResetsValuesButKeepsHandles) {
  Counter* counter = MetricsRegistry::Get().counter("test.session_reset");
  counter->Add(9);
  ASSERT_GT(counter->Total(), 0u);
  {
    ScopedSession session;
    // StartSession zeroed every metric so the session's snapshot only
    // covers the session.
    EXPECT_EQ(counter->Total(), 0u);
    EXPECT_EQ(MetricsRegistry::Get().counter("test.session_reset"), counter);
  }
}

}  // namespace
}  // namespace obs
}  // namespace pmjoin
