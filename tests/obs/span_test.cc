#include "obs/span.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace obs {
namespace {

std::vector<TraceEvent> Capture(void (*body)()) {
  Tracer::Get().StartSession(nullptr);
  body();
  Tracer::Get().StopSession();
  return Tracer::Get().TakeEvents();
}

TEST(SpanTest, NoSessionRecordsNothing) {
  ASSERT_FALSE(Tracer::Get().active());
  { PMJOIN_SPAN("orphan"); }
  EXPECT_TRUE(Tracer::Get().TakeEvents().empty());
}

TEST(SpanTest, NestingBuildsPathsAndDepths) {
  const auto events = Capture([] {
    PMJOIN_SPAN("outer");
    {
      PMJOIN_SPAN("inner");
      { PMJOIN_SPAN("leaf"); }
    }
  });
  // Spans complete innermost-first.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].path, "outer/inner/leaf");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].path, "outer/inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].path, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_STREQ(events[2].name, "outer");
}

TEST(SpanTest, SiblingSpansShareParentPrefix) {
  const auto events = Capture([] {
    PMJOIN_SPAN("parent");
    { PMJOIN_SPAN("first"); }
    { PMJOIN_SPAN("second"); }
  });
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].path, "parent/first");
  EXPECT_EQ(events[1].path, "parent/second");
  EXPECT_EQ(events[2].path, "parent");
}

TEST(SpanTest, WallClockIsMonotoneAndNested) {
  const auto events = Capture([] {
    PMJOIN_SPAN("outer");
    { PMJOIN_SPAN("inner"); }
  });
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_LE(inner.start_ns, inner.end_ns);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
}

TEST(SpanTest, OpsDeltaIsCapturedPerSpan) {
  Tracer::Get().StartSession(nullptr);
  OpCounters ops;
  ops.distance_terms = 100;  // pre-span work must not be attributed
  {
    PMJOIN_SPAN_OPS("work", &ops);
    ops.distance_terms += 7;
    ops.result_pairs += 2;
  }
  Tracer::Get().StopSession();
  const auto events = Tracer::Get().TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].has_ops);
  EXPECT_EQ(events[0].ops.distance_terms, 7u);
  EXPECT_EQ(events[0].ops.result_pairs, 2u);
  EXPECT_FALSE(events[0].has_io);
}

TEST(SpanTest, ArgIsRecorded) {
  const auto events = Capture([] { PMJOIN_SPAN_ARG("cluster", 42); });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg, 42u);
}

TEST(SpanTest, IoDeltaCapturedOnSessionThreadOnly) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("f", 8);
  ASSERT_TRUE(disk.ReadPage({file, 0}).ok());  // pre-session traffic

  Tracer::Get().StartSession(&disk);
  {
    PMJOIN_SPAN("read_phase");
    ASSERT_TRUE(disk.ReadPage({file, 1}).ok());
    ASSERT_TRUE(disk.ReadPage({file, 2}).ok());
  }
  std::thread worker([] { PMJOIN_SPAN("worker_phase"); });
  worker.join();
  Tracer::Get().StopSession();

  const auto events = Tracer::Get().TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& read_phase = events[0];
  ASSERT_TRUE(read_phase.has_io);
  EXPECT_EQ(read_phase.io.pages_read, 2u);  // not the pre-session read
  const TraceEvent& worker_phase = events[1];
  EXPECT_FALSE(worker_phase.has_io);  // off the session thread
  EXPECT_NE(worker_phase.tid, read_phase.tid);
}

TEST(SpanTest, AdoptedParentsNestAnotherThreadsSpans) {
  const auto events = Capture([] {
    PMJOIN_SPAN("outer");
    PMJOIN_SPAN("inner");
    std::thread worker([parents = OpenSpanNames()]() mutable {
      {
        ScopedSpanParents adopt(std::move(parents));
        PMJOIN_SPAN("chunk");
      }
      // The worker's own, empty stack is back: this span is a root.
      PMJOIN_SPAN("after");
    });
    worker.join();
  });
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].path, "outer/inner/chunk");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].path, "after");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[2].path, "outer/inner");
  EXPECT_NE(events[0].tid, events[2].tid);
}

TEST(SpanTest, SessionIoCoversSessionOnly) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("f", 8);
  ASSERT_TRUE(disk.ReadPage({file, 0}).ok());
  Tracer::Get().StartSession(&disk);
  ASSERT_TRUE(disk.ReadPage({file, 1}).ok());
  Tracer::Get().StopSession();
  ASSERT_TRUE(disk.ReadPage({file, 2}).ok());  // after stop: not counted
  EXPECT_EQ(Tracer::Get().SessionIo().pages_read, 1u);
  Tracer::Get().TakeEvents();
}

TEST(SpanTest, SpanStraddlingStopIsDropped) {
  Tracer::Get().StartSession(nullptr);
  {
    PMJOIN_SPAN("straddler");
    Tracer::Get().StopSession();
  }
  EXPECT_TRUE(Tracer::Get().TakeEvents().empty());
}

TEST(SpanTest, StartSessionClearsPriorEvents) {
  Tracer::Get().StartSession(nullptr);
  { PMJOIN_SPAN("stale"); }
  Tracer::Get().StopSession();
  // Deliberately not drained: the next session must start clean anyway.
  Tracer::Get().StartSession(nullptr);
  { PMJOIN_SPAN("fresh"); }
  Tracer::Get().StopSession();
  const auto events = Tracer::Get().TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].path, "fresh");
}

}  // namespace
}  // namespace obs
}  // namespace pmjoin
