// Round-trip determinism across storage backends (PR-5 tentpole): a join
// must produce byte-identical result pairs, OpCounters, and modeled
// IoStats whether the datasets were freshly built or persisted and
// reopened, whether the backend is simulated or file-backed, and whether
// the executor runs on 1 or 8 threads.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/join_driver.h"
#include "data/generators.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "test_util.h"

namespace pmjoin {
namespace {

constexpr uint32_t kPageBytes = 64;
constexpr Algorithm kAlgorithms[] = {Algorithm::kSc, Algorithm::kCc};
constexpr uint32_t kThreadCounts[] = {1, 8};

/// One join execution, reduced to everything the determinism matrix
/// compares.
struct RunResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  OpCounters ops;
  IoStats io;

  bool operator==(const RunResult& other) const = default;
};

JoinOptions MakeOptions(Algorithm algorithm, uint32_t threads) {
  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_pages = 12;
  options.page_size_bytes = kPageBytes;
  options.num_threads = threads;
  return options;
}

std::string ScratchDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "pmjoin-roundtrip-" +
                          std::to_string(::getpid()) + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::unique_ptr<FileBackend> OpenFileBackend(const std::string& dir) {
  FileBackend::Options options;
  options.page_size_bytes = kPageBytes * 4;
  auto opened = FileBackend::Open(dir, options);
  PMJOIN_CHECK(opened.ok(), opened.status().ToString().c_str());
  return std::move(opened).value();
}

template <typename RunFn>
RunResult RunJoin(StorageBackend* disk, RunFn&& run) {
  JoinDriver driver(disk);
  CollectingSink sink;
  auto report = run(&driver, &sink);
  PMJOIN_CHECK(report.ok(), report.status().ToString().c_str());
  return RunResult{sink.Sorted(), report->ops, report->io};
}

/// The full SC/CC x threads sweep for a vector dataset pair.
std::vector<RunResult> VectorSweep(StorageBackend* disk,
                                   const VectorDataset& r,
                                   const VectorDataset& s) {
  std::vector<RunResult> results;
  for (const Algorithm algorithm : kAlgorithms) {
    for (const uint32_t threads : kThreadCounts) {
      results.push_back(RunJoin(disk, [&](JoinDriver* d, PairSink* sink) {
        return d->RunVector(r, s, /*eps=*/0.05,
                            MakeOptions(algorithm, threads), sink);
      }));
    }
  }
  return results;
}

TEST(BackendRoundTripTest, VectorFileBackendSurvivesReopen) {
  const std::string dir = ScratchDir("vector");
  const VectorData r_raw = GenRoadNetwork(300, 3);
  const VectorData s_raw = GenRoadNetwork(250, 4);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = kPageBytes;

  std::vector<RunResult> fresh;
  {
    auto backend = OpenFileBackend(dir);
    auto r = VectorDataset::Build(backend.get(), "r", r_raw, ds_options)
                 .value();
    auto s = VectorDataset::Build(backend.get(), "s", s_raw, ds_options)
                 .value();
    fresh = VectorSweep(backend.get(), r, s);
    ASSERT_TRUE(r.Persist(backend.get()).ok());
    ASSERT_TRUE(s.Persist(backend.get()).ok());
  }

  // A fresh backend instance over the same directory: the reopened
  // datasets must reproduce every run of the sweep byte for byte.
  auto backend = OpenFileBackend(dir);
  auto r = VectorDataset::Open(backend.get(), "r").value();
  auto s = VectorDataset::Open(backend.get(), "s").value();
  EXPECT_EQ(r.num_records(), r_raw.count());
  EXPECT_EQ(s.num_records(), s_raw.count());
  const std::vector<RunResult> reopened = VectorSweep(backend.get(), r, s);

  ASSERT_EQ(fresh.size(), reopened.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_GT(fresh[i].pairs.size(), 0u) << "run " << i;
    EXPECT_EQ(fresh[i], reopened[i]) << "run " << i;
  }
}

TEST(BackendRoundTripTest, VectorSimAndFileBackendsAgree) {
  const VectorData r_raw = GenRoadNetwork(300, 3);
  const VectorData s_raw = GenRoadNetwork(250, 4);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = kPageBytes;

  SimulatedDisk sim(DiskModel(), kPageBytes * 4);
  auto r_sim = VectorDataset::Build(&sim, "r", r_raw, ds_options).value();
  auto s_sim = VectorDataset::Build(&sim, "s", s_raw, ds_options).value();
  const std::vector<RunResult> on_sim = VectorSweep(&sim, r_sim, s_sim);

  auto file = OpenFileBackend(ScratchDir("simvsfile"));
  auto r_file =
      VectorDataset::Build(file.get(), "r", r_raw, ds_options).value();
  auto s_file =
      VectorDataset::Build(file.get(), "s", s_raw, ds_options).value();
  const std::vector<RunResult> on_file = VectorSweep(file.get(), r_file,
                                                     s_file);

  ASSERT_EQ(on_sim.size(), on_file.size());
  for (size_t i = 0; i < on_sim.size(); ++i)
    EXPECT_EQ(on_sim[i], on_file[i]) << "run " << i;
  // The file backend really did the work physically.
  EXPECT_GT(file->measured().read_syscalls, 0u);
  EXPECT_GT(file->measured().checksum_checks, 0u);
  EXPECT_EQ(sim.measured().read_syscalls, 0u);
}

TEST(BackendRoundTripTest, StringStoreSurvivesReopen) {
  const std::string dir = ScratchDir("string");
  std::vector<uint8_t> a, b;
  GenDnaPair(500, 400, 23, &a, &b, 0.5, 0.01);
  // Plant homologous segments so the cross join is non-empty (see
  // join_driver_test.cc for the rationale).
  Rng rng(99);
  for (size_t chunk = 0; chunk < 2; ++chunk) {
    const size_t src = 50 + chunk * 180;
    const size_t dst = 80 + chunk * 150;
    for (size_t i = 0; i < 60; ++i) b[dst + i] = a[src + i];
    b[dst + rng.Uniform(60)] = static_cast<uint8_t>(rng.Uniform(4));
  }

  const auto sweep = [](StorageBackend* disk, const StringSequenceStore& as,
                        const StringSequenceStore& bs) {
    std::vector<RunResult> results;
    for (const Algorithm algorithm : kAlgorithms) {
      for (const uint32_t threads : kThreadCounts) {
        results.push_back(RunJoin(disk, [&](JoinDriver* d, PairSink* sink) {
          return d->RunString(as, bs, /*max_edits=*/5,
                              MakeOptions(algorithm, threads), sink);
        }));
      }
    }
    return results;
  };

  std::vector<RunResult> fresh;
  {
    auto backend = OpenFileBackend(dir);
    auto as =
        StringSequenceStore::Build(backend.get(), "a", a, 4, 12, kPageBytes)
            .value();
    auto bs =
        StringSequenceStore::Build(backend.get(), "b", b, 4, 12, kPageBytes)
            .value();
    fresh = sweep(backend.get(), as, bs);
    ASSERT_TRUE(as.Persist(backend.get()).ok());
    ASSERT_TRUE(bs.Persist(backend.get()).ok());
  }

  auto backend = OpenFileBackend(dir);
  auto as = StringSequenceStore::Open(backend.get(), "a").value();
  auto bs = StringSequenceStore::Open(backend.get(), "b").value();
  EXPECT_EQ(as.symbols().size(), a.size());
  const std::vector<RunResult> reopened = sweep(backend.get(), as, bs);

  ASSERT_EQ(fresh.size(), reopened.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_GT(fresh[i].pairs.size(), 0u) << "run " << i;
    EXPECT_EQ(fresh[i], reopened[i]) << "run " << i;
  }
}

TEST(BackendRoundTripTest, TimeSeriesStoreSurvivesReopen) {
  const std::string dir = ScratchDir("series");
  const std::vector<float> x = GenRandomWalk(400, 17);
  const std::vector<float> y = GenRandomWalk(300, 18);

  const auto sweep = [](StorageBackend* disk, const TimeSeriesStore& xs,
                        const TimeSeriesStore& ys) {
    std::vector<RunResult> results;
    for (const Algorithm algorithm : kAlgorithms) {
      for (const uint32_t threads : kThreadCounts) {
        results.push_back(RunJoin(disk, [&](JoinDriver* d, PairSink* sink) {
          return d->RunTimeSeries(xs, ys, /*eps=*/2.0,
                                  MakeOptions(algorithm, threads), sink);
        }));
      }
    }
    return results;
  };

  std::vector<RunResult> fresh;
  {
    auto backend = OpenFileBackend(dir);
    auto xs = TimeSeriesStore::Build(backend.get(), "x", x, 4, 16,
                                     60 * sizeof(float))
                  .value();
    auto ys = TimeSeriesStore::Build(backend.get(), "y", y, 4, 16,
                                     60 * sizeof(float))
                  .value();
    fresh = sweep(backend.get(), xs, ys);
    ASSERT_TRUE(xs.Persist(backend.get()).ok());
    ASSERT_TRUE(ys.Persist(backend.get()).ok());
  }

  auto backend = OpenFileBackend(dir);
  auto xs = TimeSeriesStore::Open(backend.get(), "x").value();
  auto ys = TimeSeriesStore::Open(backend.get(), "y").value();
  EXPECT_EQ(xs.symbols().size(), x.size());
  const std::vector<RunResult> reopened = sweep(backend.get(), xs, ys);

  ASSERT_EQ(fresh.size(), reopened.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_GT(fresh[i].pairs.size(), 0u) << "run " << i;
    EXPECT_EQ(fresh[i], reopened[i]) << "run " << i;
  }
}

// A corrupted data page must surface as Status::Corruption through the
// whole driver stack — matrix build, buffer pool, executor — without
// aborting the process.
TEST(BackendRoundTripTest, CorruptPageSurfacesThroughDriver) {
  const std::string dir = ScratchDir("corrupt");
  auto backend = OpenFileBackend(dir);
  const VectorData r_raw = GenRoadNetwork(300, 3);
  const VectorData s_raw = GenRoadNetwork(250, 4);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = kPageBytes;
  auto r = VectorDataset::Build(backend.get(), "r", r_raw, ds_options)
               .value();
  auto s = VectorDataset::Build(backend.get(), "s", s_raw, ds_options)
               .value();
  ASSERT_TRUE(backend->Sync().ok());

  // Flip one bit in every page of r on disk, so whichever pages the
  // join touches, the first read of r hits a bad checksum.
  std::string path;
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "pf%06u_", r.file_id());
  for (const auto& entry :
       std::filesystem::directory_iterator(backend->directory())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0)
      path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    for (uint32_t page = 0; page < r.num_pages(); ++page) {
      const uint64_t offset =
          FileBackend::SlotOffset(backend->page_size_bytes(), page) + 11;
      f.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&byte, 1);
    }
  }

  JoinDriver driver(backend.get());
  CollectingSink sink;
  const auto report = driver.RunVector(r, s, /*eps=*/0.05,
                                       MakeOptions(Algorithm::kSc, 1),
                                       &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption())
      << report.status().ToString();
}

}  // namespace
}  // namespace pmjoin
