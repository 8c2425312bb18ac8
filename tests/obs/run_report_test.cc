#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/simulated_disk.h"
#include "obs/span.h"

namespace pmjoin {
namespace obs {
namespace {

TraceEvent Event(const std::string& path, int64_t wall_ns) {
  TraceEvent event;
  event.path = path;
  event.depth = 0;
  for (char c : path) {
    if (c == '/') ++event.depth;
  }
  event.start_ns = 0;
  event.end_ns = wall_ns;
  return event;
}

TraceEvent IoEvent(const std::string& path, uint64_t pages_read,
                   uint64_t seeks) {
  TraceEvent event = Event(path, 10);
  event.has_io = true;
  event.io.pages_read = pages_read;
  event.io.seeks = seeks;
  return event;
}

/// Ensures no stale tracer session leaks into a synthetic-events test (the
/// report still snapshots Tracer::SessionIo for its totals).
void ResetTracer() {
  Tracer::Get().StartSession(nullptr);
  Tracer::Get().StopSession();
  Tracer::Get().TakeEvents();
}

TEST(RunReportTest, FoldsOccurrencesByPath) {
  ResetTracer();
  std::vector<TraceEvent> events;
  events.push_back(Event("join/execute/cluster", 5));
  events.push_back(Event("join/execute/cluster", 7));
  events.push_back(Event("join/execute", 20));
  events.push_back(Event("join", 30));

  RunReport report;
  report.CaptureSession(events);
  ASSERT_EQ(report.phases().size(), 3u);
  // Lexicographic by path.
  EXPECT_EQ(report.phases()[0].path, "join");
  EXPECT_EQ(report.phases()[1].path, "join/execute");
  EXPECT_EQ(report.phases()[2].path, "join/execute/cluster");
  EXPECT_EQ(report.phases()[2].name, "cluster");
  EXPECT_EQ(report.phases()[2].count, 2u);
  EXPECT_EQ(report.phases()[2].wall_ns, 12);
}

TEST(RunReportTest, ExclusiveIoTelescopesToTotals) {
  // Real session so io_totals is a live disk delta.
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("f", 16);
  Tracer::Get().StartSession(&disk);
  {
    PMJOIN_SPAN("outer");
    ASSERT_TRUE(disk.ReadPage({file, 0}).ok());
    {
      PMJOIN_SPAN("inner");
      ASSERT_TRUE(disk.ReadPage({file, 4}).ok());
      ASSERT_TRUE(disk.ReadPage({file, 5}).ok());
    }
    ASSERT_TRUE(disk.ReadPage({file, 1}).ok());
  }
  // Session traffic outside any span becomes unattributed.
  ASSERT_TRUE(disk.ReadPage({file, 9}).ok());
  Tracer::Get().StopSession();

  RunReport report;
  report.CaptureSession();
  ASSERT_EQ(report.phases().size(), 2u);
  const PhaseRow& outer = report.phases()[0];
  const PhaseRow& inner = report.phases()[1];
  EXPECT_EQ(outer.path, "outer");
  EXPECT_EQ(inner.path, "outer/inner");
  // Inclusive: outer saw all four of its reads; inner two of them.
  EXPECT_EQ(outer.io.pages_read, 4u);
  EXPECT_EQ(inner.io.pages_read, 2u);
  // Exclusive: the child's share is subtracted from the parent.
  EXPECT_EQ(outer.io_self.pages_read, 2u);
  EXPECT_EQ(inner.io_self.pages_read, 2u);
  EXPECT_EQ(report.unattributed_io().pages_read, 1u);
  // The ledger invariant, field by field.
  IoStats sum = report.unattributed_io();
  for (const PhaseRow& row : report.phases()) sum += row.io_self;
  EXPECT_EQ(sum, report.io_totals());
  EXPECT_EQ(report.io_totals().pages_read, 5u);
}

TEST(RunReportTest, OrphanedChildDegradesToRootNotDoubleCount) {
  ResetTracer();
  // Parent span was dropped (straddled the session boundary): the child's
  // I/O must count once against the totals, not vanish or double.
  std::vector<TraceEvent> events;
  events.push_back(IoEvent("join/execute", 3, 1));

  RunReport report;
  report.CaptureSession(events);
  ASSERT_EQ(report.phases().size(), 1u);
  EXPECT_EQ(report.phases()[0].io_self.pages_read, 3u);
  IoStats sum = report.unattributed_io();
  for (const PhaseRow& row : report.phases()) sum += row.io_self;
  EXPECT_EQ(sum, report.io_totals());
}

TEST(RunReportTest, JsonCarriesSchemaContextAndRows) {
  ResetTracer();
  RunReport report;
  report.SetContext("binary", "test");
  report.SetContext("n", static_cast<uint64_t>(123));
  report.AddRowJson("{\"table\": \"t\", \"label\": \"x\"}");
  report.CaptureSession(std::vector<TraceEvent>());

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"pmjoin.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"binary\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":123"), std::string::npos);
  EXPECT_NE(json.find("{\"table\": \"t\", \"label\": \"x\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"io_totals\""), std::string::npos);
  EXPECT_NE(json.find("\"unattributed_io\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(RunReportTest, CapturesMetricsSnapshot) {
  SimulatedDisk disk;
  Tracer::Get().StartSession(&disk);
  PMJOIN_METRIC_COUNT("test.report_metric", 4);
  Tracer::Get().StopSession();
  RunReport report;
  report.CaptureSession();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"test.report_metric\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pmjoin
