// The clustered executor over both storage backends: at 1 and 8 workers
// the emitted pair sequence, the aggregated OpCounters and the *modeled*
// IoStats must be byte-identical to the serial run on the simulated
// disk. Plus fault injection: a corrupt page first read for a later
// cluster must surface as Status::Corruption through ExecuteClusteredJoin
// with full pin rollback, at every worker count.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/joiners.h"
#include "core/plane_sweep.h"
#include "core/prediction_matrix.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace {

/// A fresh scratch directory under the gtest temp dir (removed up front so
/// reruns start clean).
std::string ScratchDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "pmjoin-exatest-" +
                          std::to_string(::getpid()) + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// Path of `file`'s page file inside the backend directory.
std::string PagePath(const FileBackend& backend, uint32_t file) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "pf%06u_", file);
  for (const auto& entry :
       std::filesystem::directory_iterator(backend.directory())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0)
      return entry.path().string();
  }
  return {};
}

/// Flips one bit at byte `offset` of `path`.
void FlipBit(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

/// tests/join_test_util.h's SmallVectorJoin, but over a caller-supplied
/// backend so the same workload runs on the simulated and the file
/// backend. Page size is tiny so small inputs span many pages.
class BackendVectorJoin {
 public:
  BackendVectorJoin(std::unique_ptr<StorageBackend> disk, size_t nr,
                    size_t ns, uint64_t seed, double eps,
                    uint32_t page_bytes = 64)
      : disk_(std::move(disk)) {
    const VectorData r_raw = GenRoadNetwork(nr, seed);
    const VectorData s_raw = GenRoadNetwork(ns, seed + 1000);
    VectorDataset::Options options;
    options.page_size_bytes = page_bytes;
    r_.emplace(VectorDataset::Build(disk_.get(), "r", r_raw, options).value());
    s_.emplace(VectorDataset::Build(disk_.get(), "s", s_raw, options).value());
    joiner_.emplace(&*r_, &*s_, eps, Norm::kL2, /*self_join=*/false);
    input_.r_file = r_->file_id();
    input_.s_file = s_->file_id();
    input_.r_pages = r_->num_pages();
    input_.s_pages = s_->num_pages();
    input_.self_join = false;
    input_.joiner = &*joiner_;
    matrix_.emplace(BuildPredictionMatrixFlat(
        r_->page_mbrs(), s_->page_mbrs(), eps, Norm::kL2, nullptr));
  }

  StorageBackend& disk() { return *disk_; }
  const JoinInput& input() const { return input_; }
  const PredictionMatrix& matrix() const { return *matrix_; }

 private:
  std::unique_ptr<StorageBackend> disk_;
  std::optional<VectorDataset> r_, s_;
  std::optional<VectorPairJoiner> joiner_;
  JoinInput input_;
  std::optional<PredictionMatrix> matrix_;
};

struct RunResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  IoStats io;
  OpCounters ops;
  Status status = Status::OK();
};

RunResult RunOnce(BackendVectorJoin& fixture,
                  const std::vector<Cluster>& clusters,
                  const std::vector<uint32_t>& order, uint32_t buffer,
                  uint32_t num_threads) {
  RunResult result;
  const IoStats io_before = fixture.disk().stats();
  BufferPool pool(&fixture.disk(), buffer);
  CollectingSink sink;
  result.status = ExecuteClusteredJoin(fixture.input(), clusters, order,
                                       &pool, &sink, &result.ops, num_threads);
  result.pairs = sink.pairs();
  result.io = fixture.disk().stats().Delta(io_before);
  return result;
}

constexpr size_t kNr = 400;
constexpr size_t kNs = 350;
constexpr uint64_t kSeed = 21;
constexpr double kEps = 0.05;
constexpr uint32_t kBuffer = 10;

TEST(ExecutorBackendTest, ConcordanceAcrossBackendsAndWorkers) {
  // The cross-backend reference: pairs/ops/modeled-IoStats of the serial
  // run, which must be identical on both backends (the base class owns
  // the model) and at every worker count.
  std::optional<RunResult> reference;

  for (const bool file_backend : {false, true}) {
    std::unique_ptr<StorageBackend> disk;
    if (file_backend) {
      disk = FileBackend::Open(ScratchDir("concordance")).value();
    } else {
      disk = std::make_unique<SimulatedDisk>();
    }
    BackendVectorJoin fixture(std::move(disk), kNr, kNs, kSeed, kEps);
    const auto clusters =
        SquareClustering(fixture.matrix(), kBuffer, nullptr);
    ASSERT_GT(clusters.size(), 1u);
    const auto order = ScheduleClusters(clusters, fixture.input(), nullptr);

    // One warm-up run pins the disk-head start position, so every timed
    // run below begins from the same modeled state.
    ASSERT_TRUE(RunOnce(fixture, clusters, order, kBuffer, 1).status.ok());

    const RunResult baseline = RunOnce(fixture, clusters, order, kBuffer, 1);
    ASSERT_TRUE(baseline.status.ok());
    ASSERT_FALSE(baseline.pairs.empty());
    if (!reference.has_value()) {
      reference = baseline;
    } else {
      // Modeled I/O is byte-identical across backends by construction.
      EXPECT_EQ(baseline.pairs, reference->pairs) << "backend mismatch";
      EXPECT_EQ(baseline.io, reference->io) << "backend mismatch";
      EXPECT_EQ(baseline.ops, reference->ops) << "backend mismatch";
    }

    for (const uint32_t workers : {1u, 8u}) {
      const RunResult run = RunOnce(fixture, clusters, order, kBuffer, workers);
      std::string where = file_backend ? "file" : "sim";
      where += " workers=" + std::to_string(workers);
      ASSERT_TRUE(run.status.ok()) << where << ": " << run.status.message();
      EXPECT_EQ(run.pairs, reference->pairs) << where;
      EXPECT_EQ(run.io, reference->io) << where;
      EXPECT_EQ(run.ops, reference->ops) << where;
    }
  }
}

TEST(ExecutorBackendTest, CorruptLaterPageSurfacesWithFullRollback) {
  auto opened = FileBackend::Open(ScratchDir("corrupt"),
                                  FileBackend::Options());
  ASSERT_TRUE(opened.ok());
  FileBackend* fb = opened.value().get();
  BackendVectorJoin fixture(std::move(opened).value(), kNr, kNs, kSeed,
                            kEps);
  const auto clusters = SquareClustering(fixture.matrix(), kBuffer, nullptr);
  ASSERT_GT(clusters.size(), 2u);
  const auto order = ScheduleClusters(clusters, fixture.input(), nullptr);

  // Corrupt a page that the *last* cluster needs and the *first* does not:
  // its first physical read happens for some cluster k >= 1, after
  // cluster k-1 has joined and released its pins.
  const auto last_pages =
      ClusterPageSet(clusters[order.back()], fixture.input());
  const auto first_pages =
      ClusterPageSet(clusters[order.front()], fixture.input());
  std::optional<PageId> victim;
  for (const PageId pid : last_pages) {
    bool in_first = false;
    for (const PageId other : first_pages) in_first |= (other == pid);
    if (!in_first) {
      victim = pid;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());
  const std::string path = PagePath(*fb, victim->file);
  ASSERT_FALSE(path.empty());
  FlipBit(path,
          FileBackend::SlotOffset(fb->page_size_bytes(), victim->page) + 3);

  for (const uint32_t workers : {1u, 8u}) {
    BufferPool pool(&fixture.disk(), kBuffer);
    CollectingSink sink;
    const Status st = ExecuteClusteredJoin(fixture.input(), clusters, order,
                                           &pool, &sink, nullptr, workers);
    EXPECT_TRUE(st.IsCorruption()) << "workers=" << workers << ": "
                                   << st.message();
    // Full unwind: no leaked pins and a consistent pool.
    EXPECT_EQ(pool.PinnedCount(), 0u) << "workers=" << workers;
    EXPECT_TRUE(pool.ValidateInvariants().ok()) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace pmjoin
