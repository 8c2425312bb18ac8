// End-to-end contract of the observability subsystem (src/obs):
//
//  1. Exactness — the run report's per-phase exclusive I/O deltas plus its
//     unattributed remainder reproduce the session IoStats totals field by
//     field, and the session totals equal the JoinReport's own delta.
//  2. Harmlessness — enabling a tracing session changes neither the emitted
//     pairs nor the op counters nor the simulated I/O, at any thread count.
//  3. Measured I/O — on the file backend the session's io.* syscall and
//     byte metrics equal the backend's own measured counters.
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/join_driver.h"
#include "data/generators.h"
#include "io/file_backend.h"
#include "io/io_stats.h"
#include "io/simulated_disk.h"
#include "obs/run_report.h"
#include "obs/span.h"

namespace pmjoin {
namespace {

struct RunResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  OpCounters ops;
  IoStats io;
  obs::RunReport report;  // captured only when observed
};

/// One fully fresh SC/CC join (own disk + datasets, deterministic seeds),
/// optionally bracketed by a tracer session around the join itself.
RunResult RunOnce(Algorithm algorithm, uint32_t num_threads, bool observed) {
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(600, 31);
  const VectorData s_raw = GenRoadNetwork(500, 32);
  VectorDataset::Options layout;
  layout.page_size_bytes = 64;
  VectorDataset r = VectorDataset::Build(&disk, "r", r_raw, layout).value();
  VectorDataset s = VectorDataset::Build(&disk, "s", s_raw, layout).value();

  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_pages = 10;
  options.page_size_bytes = 64;
  options.num_threads = num_threads;

  JoinDriver driver(&disk);
  CollectingSink sink;
  if (observed) obs::Tracer::Get().StartSession(&disk);
  auto report = driver.RunVector(r, s, 0.05, options, &sink);
  if (observed) obs::Tracer::Get().StopSession();

  RunResult result;
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    result.pairs = sink.Sorted();
    result.ops = report->ops;
    result.io = report->io;
  }
  if (observed) {
    result.report.CaptureSession();
  } else {
    // A stray session would invalidate the harmlessness comparison.
    EXPECT_FALSE(obs::Tracer::Get().active());
  }
  return result;
}

IoStats LedgerSum(const obs::RunReport& report) {
  IoStats sum = report.unattributed_io();
  for (const obs::PhaseRow& row : report.phases()) sum += row.io_self;
  return sum;
}

TEST(ObsAttributionTest, PhaseLedgerSumsToSessionTotalsExactly) {
  for (Algorithm algorithm : {Algorithm::kSc, Algorithm::kCc}) {
    for (uint32_t threads : {1u, 4u}) {
      const RunResult run = RunOnce(algorithm, threads, /*observed=*/true);
      // Session == join bracket, so totals must equal the JoinReport delta.
      EXPECT_EQ(run.report.io_totals(), run.io)
          << AlgorithmName(algorithm) << " threads=" << threads;
      // The ledger invariant: exclusive phase deltas + unattributed ==
      // totals, every field.
      EXPECT_EQ(LedgerSum(run.report), run.report.io_totals())
          << AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

TEST(ObsAttributionTest, ExpectedPhasesArePresent) {
  const RunResult run = RunOnce(Algorithm::kSc, 1, /*observed=*/true);
  bool saw_join = false;
  bool saw_matrix = false;
  bool saw_execute = false;
  bool saw_cluster = false;
  for (const obs::PhaseRow& row : run.report.phases()) {
    if (row.path == "join") saw_join = true;
    if (row.path == "join/matrix_build") saw_matrix = true;
    if (row.path == "join/execute") saw_execute = true;
    if (row.path == "join/execute/cluster") saw_cluster = true;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_matrix);
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_cluster);
  // The root phase carries the whole join's op counters.
  for (const obs::PhaseRow& row : run.report.phases()) {
    if (row.path != "join") continue;
    ASSERT_TRUE(row.has_ops);
    EXPECT_EQ(row.ops, run.ops);
  }
}

TEST(ObsAttributionTest, ThreadsAddNoPhaseButTheWorkerChunks) {
  // Pins and unpins happen on the calling thread at the same positions
  // whatever the thread count, so a multi-threaded run records the
  // one-thread phase tree with the same I/O, plus its worker chunk joins.
  const auto coordinator_phases = [](const obs::RunReport& report) {
    std::map<std::string, obs::PhaseRow> rows;
    for (const obs::PhaseRow& row : report.phases())
      if (row.name != "join_entries") rows.emplace(row.path, row);
    return rows;
  };
  for (Algorithm algorithm : {Algorithm::kSc, Algorithm::kCc}) {
    const auto one = coordinator_phases(
        RunOnce(algorithm, 1, /*observed=*/true).report);
    const auto four = coordinator_phases(
        RunOnce(algorithm, 4, /*observed=*/true).report);
    std::vector<std::string> one_paths, four_paths;
    for (const auto& [path, row] : one) one_paths.push_back(path);
    for (const auto& [path, row] : four) four_paths.push_back(path);
    ASSERT_EQ(four_paths, one_paths) << AlgorithmName(algorithm);
    for (const auto& [path, row] : one) {
      const obs::PhaseRow& other = four.at(path);
      EXPECT_EQ(other.count, row.count) << path;
      EXPECT_EQ(other.has_io, row.has_io) << path;
      EXPECT_EQ(other.io, row.io) << path;
      EXPECT_EQ(other.io_self, row.io_self) << path;
      EXPECT_EQ(other.ops, row.ops) << path;
    }
  }
}

TEST(ObsAttributionTest, WorkerSpansAppearAtHigherThreadCounts) {
  const RunResult run = RunOnce(Algorithm::kSc, 4, /*observed=*/true);
  bool saw_worker_chunk = false;
  for (const obs::PhaseRow& row : run.report.phases()) {
    if (row.name == "join_entries") {
      saw_worker_chunk = true;
      // A worker's chunk join nests under the cluster its coordinator has
      // open; it never starts a root of its own.
      EXPECT_EQ(row.path, "join/execute/cluster/join_entries");
      // Worker-track spans never carry I/O — all disk traffic is on the
      // coordinator, which is what makes the ledger race-free.
      EXPECT_FALSE(row.has_io);
    }
  }
  EXPECT_TRUE(saw_worker_chunk);
}

TEST(ObsAttributionTest, ObservationDoesNotChangeResults) {
  for (Algorithm algorithm : {Algorithm::kSc, Algorithm::kCc}) {
    const RunResult base = RunOnce(algorithm, 1, /*observed=*/false);
    ASSERT_FALSE(base.pairs.empty());
    for (bool observed : {false, true}) {
      for (uint32_t threads : {1u, 8u}) {
        const RunResult run = RunOnce(algorithm, threads, observed);
        EXPECT_EQ(run.pairs, base.pairs)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
        EXPECT_EQ(run.ops, base.ops)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
        EXPECT_EQ(run.io, base.io)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
      }
    }
  }
}

TEST(ObsAttributionTest, MeasuredIoMetricsEqualTheBackendsCounters) {
  // The run report's only record of measured I/O is its io.* metrics, so
  // over a session that builds, persists and joins on real files they
  // must equal the backend's MeasuredIo delta.
  const std::string dir = ::testing::TempDir() + "pmjoin-obs-measured-" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  FileBackend::Options backend_options;
  backend_options.page_size_bytes = 256;
  auto backend = FileBackend::Open(dir, backend_options).value();
  const StorageBackend::MeasuredIo before = backend->measured();

  obs::Tracer::Get().StartSession(backend.get());
  VectorDataset::Options layout;
  layout.page_size_bytes = 64;
  VectorDataset r =
      VectorDataset::Build(backend.get(), "r", GenRoadNetwork(600, 31),
                           layout)
          .value();
  VectorDataset s =
      VectorDataset::Build(backend.get(), "s", GenRoadNetwork(500, 32),
                           layout)
          .value();
  ASSERT_TRUE(r.Persist(backend.get()).ok());
  ASSERT_TRUE(s.Persist(backend.get()).ok());
  JoinOptions options;
  options.algorithm = Algorithm::kSc;
  options.buffer_pages = 10;
  options.page_size_bytes = 64;
  JoinDriver driver(backend.get());
  CollectingSink sink;
  ASSERT_TRUE(driver.RunVector(r, s, 0.05, options, &sink).ok());
  obs::Tracer::Get().StopSession();

  const StorageBackend::MeasuredIo& after = backend->measured();
  const auto metric = [](const char* name) {
    return obs::MetricsRegistry::Get().counter(name)->Total();
  };
  EXPECT_GT(after.read_syscalls, before.read_syscalls);
  EXPECT_GT(after.write_syscalls, before.write_syscalls);
  EXPECT_EQ(metric("io.read_syscalls"),
            after.read_syscalls - before.read_syscalls);
  EXPECT_EQ(metric("io.read_bytes"), after.read_bytes - before.read_bytes);
  EXPECT_EQ(metric("io.write_syscalls"),
            after.write_syscalls - before.write_syscalls);
  EXPECT_EQ(metric("io.write_bytes"),
            after.write_bytes - before.write_bytes);
  backend.reset();
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace pmjoin
