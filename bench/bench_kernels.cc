// google-benchmark microbenchmarks for the CPU kernels underlying the
// join operators: edit distance (full and banded), the sliding-window
// trackers, PAA, MBR MINDIST, prediction-matrix construction, the
// clustering algorithms, and the serial-vs-parallel cluster-join executor
// sweep. These guard the constants behind the CPU cost model
// (common/cost_model.h).
//
// The binary also carries two harness sweeps run before the
// google-benchmark suite: the distance-kernel sweep (scalar reference vs
// the batched kernel layer, per norm x dims) and the kNN-join sweep
// (adaptive-eps pruning vs brute-force page expansion at k = 8). In
// --json mode the sweeps' rows are mirrored to BENCH_kernels.json so CI's
// bench-smoke job can diff them against bench/BENCH_kernels.baseline.json
// with tools/bench_compare.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geom/distance.h"
#include "geom/distance_kernels.h"
#include "harness/bench_util.h"
#include "core/cost_clustering.h"
#include "core/executor.h"
#include "core/joiners.h"
#include "core/knn_join.h"
#include "core/plane_sweep.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "geom/mbr.h"
#include "io/buffer_pool.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "io/storage_backend.h"
#include "obs/clock.h"
#include "obs/run_report.h"
#include "seq/edit_distance.h"
#include "seq/frequency_vector.h"
#include "seq/paa.h"
#include "seq/window_join.h"

namespace pmjoin {
namespace {

std::vector<uint8_t> MakeString(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> s(n);
  for (auto& c : s) c = static_cast<uint8_t>(rng.Uniform(4));
  return s;
}

std::vector<float> MakeSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> s(n);
  for (auto& v : s) v = static_cast<float>(rng.UniformDouble());
  return s;
}

void BM_EditDistanceFull(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto a = MakeString(n, 1);
  const auto b = MakeString(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_EditDistanceFull)->Arg(64)->Arg(256)->Arg(500);

void BM_EditDistanceBanded(benchmark::State& state) {
  const size_t n = 500;
  const size_t k = state.range(0);
  const auto a = MakeString(n, 1);
  auto b = a;
  Rng rng(3);
  for (size_t i = 0; i < k; ++i)
    b[rng.Uniform(n)] = static_cast<uint8_t>(rng.Uniform(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BandedEditDistance(a, b, k));
  }
  state.SetItemsProcessed(state.iterations() * (2 * k + 1) * n);
}
BENCHMARK(BM_EditDistanceBanded)->Arg(1)->Arg(5)->Arg(20);

void BM_FreqPairTrackerSlide(benchmark::State& state) {
  const size_t n = 8192, L = 500;
  const auto x = MakeString(n, 5);
  const auto y = MakeString(n, 6);
  FreqPairTracker tracker(std::span<const uint8_t>(x).subspan(0, L),
                          std::span<const uint8_t>(y).subspan(0, L), 4);
  size_t t = 0;
  for (auto _ : state) {
    tracker.Slide(x[t], x[t + L], y[t], y[t + L]);
    benchmark::DoNotOptimize(tracker.FrequencyDist());
    t = (t + 1) % (n - L - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqPairTrackerSlide);

void BM_SlidingL2TrackerSlide(benchmark::State& state) {
  const size_t n = 8192, L = 128;
  const auto x = MakeSeries(n, 7);
  const auto y = MakeSeries(n, 8);
  SlidingL2Tracker tracker(std::span<const float>(x).subspan(0, L),
                           std::span<const float>(y).subspan(0, L));
  size_t t = 0;
  for (auto _ : state) {
    tracker.Slide(x[t], x[t + L], y[t], y[t + L]);
    benchmark::DoNotOptimize(tracker.SquaredDistance());
    t = (t + 1) % (n - L - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingL2TrackerSlide);

void BM_Paa(benchmark::State& state) {
  const size_t L = state.range(0);
  const auto x = MakeSeries(L, 9);
  std::vector<float> out(8);
  for (auto _ : state) {
    PaaTransform(x, 8, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Paa)->Arg(32)->Arg(128)->Arg(512);

void BM_MbrMinDist(benchmark::State& state) {
  const size_t dims = state.range(0);
  Rng rng(11);
  std::vector<float> lo1(dims), hi1(dims), lo2(dims), hi2(dims);
  for (size_t d = 0; d < dims; ++d) {
    lo1[d] = static_cast<float>(rng.UniformDouble());
    hi1[d] = lo1[d] + 0.1f;
    lo2[d] = static_cast<float>(rng.UniformDouble());
    hi2[d] = lo2[d] + 0.1f;
  }
  const Mbr a = Mbr::FromBounds(lo1, hi1);
  const Mbr b = Mbr::FromBounds(lo2, hi2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MinDist(b, Norm::kL2));
  }
}
BENCHMARK(BM_MbrMinDist)->Arg(2)->Arg(16)->Arg(60);

std::vector<Mbr> MakeBoxes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Mbr> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> lo(2), hi(2);
    for (size_t d = 0; d < 2; ++d) {
      lo[d] = static_cast<float>(rng.UniformDouble());
      hi[d] = lo[d] + 0.01f;
    }
    boxes.push_back(Mbr::FromBounds(lo, hi));
  }
  return boxes;
}

void BM_MatrixBuildFlat(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto r = MakeBoxes(n, 13);
  const auto s = MakeBoxes(n, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildPredictionMatrixFlat(r, s, 0.01, Norm::kL2, nullptr));
  }
}
BENCHMARK(BM_MatrixBuildFlat)->Arg(256)->Arg(1024)->Arg(4096);

PredictionMatrix MakeMatrix(uint32_t n, double density, uint64_t seed) {
  Rng rng(seed);
  PredictionMatrix m(n, n);
  for (uint32_t r = 0; r < n; ++r) {
    for (uint32_t c = 0; c < n; ++c) {
      if (rng.Bernoulli(density)) m.Mark(r, c);
    }
  }
  m.Finalize();
  return m;
}

void BM_SquareClustering(benchmark::State& state) {
  const uint32_t n = state.range(0);
  const PredictionMatrix m = MakeMatrix(n, 0.05, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquareClustering(m, 32, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * m.MarkedCount());
}
BENCHMARK(BM_SquareClustering)->Arg(128)->Arg(512);

void BM_CostClustering(benchmark::State& state) {
  const uint32_t n = state.range(0);
  const PredictionMatrix m = MakeMatrix(n, 0.05, 19);
  for (auto _ : state) {
    Rng rng(23);
    benchmark::DoNotOptimize(
        CostClustering(m, 32, DiskModel(), 100, &rng, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * m.MarkedCount());
}
BENCHMARK(BM_CostClustering)->Arg(128)->Arg(512);

/// Shared workload for the executor sweep: a clustered spatial join big
/// enough that each cluster carries real distance-computation work. Built
/// once; every benchmark run replays it on a fresh buffer pool.
class ClusterJoinFixture {
 public:
  static ClusterJoinFixture& Get() {
    static ClusterJoinFixture fixture;
    return fixture;
  }

  SimulatedDisk& disk() { return disk_; }
  const JoinInput& input() const { return input_; }
  const std::vector<Cluster>& clusters() const { return clusters_; }
  const std::vector<uint32_t>& order() const { return order_; }
  uint32_t buffer_pages() const { return kBufferPages; }
  uint64_t total_entries() const { return total_entries_; }

 private:
  static constexpr uint32_t kBufferPages = 64;

  ClusterJoinFixture() {
    r_raw_ = GenRoadNetwork(30000, /*seed=*/0x5EED);
    s_raw_ = GenRoadNetwork(25000, /*seed=*/0xFEED);
    VectorDataset::Options options;
    options.page_size_bytes = 1024;
    r_.emplace(VectorDataset::Build(&disk_, "r", r_raw_, options).value());
    s_.emplace(VectorDataset::Build(&disk_, "s", s_raw_, options).value());
    joiner_.emplace(&*r_, &*s_, /*eps=*/0.01, Norm::kL2,
                    /*self_join=*/false);
    input_.r_file = r_->file_id();
    input_.s_file = s_->file_id();
    input_.r_pages = r_->num_pages();
    input_.s_pages = s_->num_pages();
    input_.self_join = false;
    input_.joiner = &*joiner_;
    const PredictionMatrix matrix = BuildPredictionMatrixFlat(
        r_->page_mbrs(), s_->page_mbrs(), 0.01, Norm::kL2, nullptr);
    clusters_ = SquareClustering(matrix, kBufferPages, nullptr);
    order_ = ScheduleClusters(clusters_, input_, nullptr);
    for (const Cluster& c : clusters_) total_entries_ += c.entries.size();
  }

  SimulatedDisk disk_;
  VectorData r_raw_, s_raw_;
  std::optional<VectorDataset> r_, s_;
  std::optional<VectorPairJoiner> joiner_;
  JoinInput input_;
  std::vector<Cluster> clusters_;
  std::vector<uint32_t> order_;
  uint64_t total_entries_ = 0;
};

/// Serial-vs-parallel executor sweep (Arg = worker count). The simulated
/// I/O counters are exported per run and must be identical across thread
/// counts — only wall-clock time may differ. Like every library join, each
/// parallel run builds its own worker pool, so thread startup is timed.
void BM_ClusterJoinExecutor(benchmark::State& state) {
  ClusterJoinFixture& fixture = ClusterJoinFixture::Get();
  const auto threads = static_cast<uint32_t>(state.range(0));

  IoStats io_delta;
  uint64_t result_pairs = 0;
  const auto run_once = [&]() -> Status {
    const IoStats io_before = fixture.disk().stats();
    BufferPool pool(&fixture.disk(), fixture.buffer_pages());
    CountingSink sink;
    const Status status =
        ExecuteClusteredJoin(fixture.input(), fixture.clusters(),
                             fixture.order(), &pool, &sink, nullptr, threads);
    if (!status.ok()) return status;
    benchmark::DoNotOptimize(sink.count());
    io_delta = fixture.disk().stats().Delta(io_before);
    result_pairs = sink.count();
    return Status::OK();
  };

  // One untimed warm-up run: the SimulatedDisk head position persists
  // across runs, so the very first run can pay a different initial seek
  // than steady state. After the warm-up every timed iteration starts
  // from the same head position and the counters exported below (taken
  // from the last iteration's delta) are steady-state values.
  if (const Status status = run_once(); !status.ok()) {
    state.SkipWithError(status.message().c_str());
  }

  for (auto _ : state) {
    if (const Status status = run_once(); !status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
  }
  state.counters["pages_read"] = static_cast<double>(io_delta.pages_read);
  state.counters["seeks"] = static_cast<double>(io_delta.seeks);
  state.counters["result_pairs"] = static_cast<double>(result_pairs);
  state.SetItemsProcessed(state.iterations() * fixture.total_entries());
}
BENCHMARK(BM_ClusterJoinExecutor)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Measured-vs-modeled I/O sweep (Arg: 0 = SimulatedDisk, 1 =
/// FileBackend over a scratch directory). Both rows run the identical
/// clustered join on identical data, so the modeled counters
/// (pages_read, seeks) must match between them — the file row fails if
/// they diverge. The file row additionally pays real pread/checksum
/// work and exports the measured counters (read_syscalls, read_bytes,
/// checksum_checks), making the modeled-vs-measured gap a single-json
/// diff in BENCH_kernels.json.
void BM_ClusterJoinMeasuredIo(benchmark::State& state) {
  constexpr uint32_t kPage = 1024;
  constexpr uint32_t kBufferPages = 32;
  const bool use_file = state.range(0) == 1;

  std::unique_ptr<StorageBackend> backend;
  if (use_file) {
    std::error_code ec;
    std::filesystem::remove_all("bench-measured-io.tmp", ec);
    FileBackend::Options options;
    options.page_size_bytes = kPage;
    Result<std::unique_ptr<FileBackend>> opened =
        FileBackend::Open("bench-measured-io.tmp", options);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().message().c_str());
      return;
    }
    backend = std::move(opened).value();
  } else {
    backend = std::make_unique<SimulatedDisk>(DiskModel(), kPage);
  }
  StorageBackend& disk = *backend;

  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = kPage;
  auto r = VectorDataset::Build(&disk, "r", GenRoadNetwork(12000, 0x5EED),
                                ds_options)
               .value();
  auto s = VectorDataset::Build(&disk, "s", GenRoadNetwork(10000, 0xFEED),
                                ds_options)
               .value();
  for (const VectorDataset* ds : {&r, &s}) {
    if (const Status status = ds->Persist(&disk); !status.ok()) {
      state.SkipWithError(status.message().c_str());
      return;
    }
  }
  VectorPairJoiner joiner(&r, &s, /*eps=*/0.01, Norm::kL2,
                          /*self_join=*/false);
  JoinInput input;
  input.r_file = r.file_id();
  input.s_file = s.file_id();
  input.r_pages = r.num_pages();
  input.s_pages = s.num_pages();
  input.self_join = false;
  input.joiner = &joiner;
  const PredictionMatrix matrix = BuildPredictionMatrixFlat(
      r.page_mbrs(), s.page_mbrs(), 0.01, Norm::kL2, nullptr);
  const std::vector<Cluster> clusters =
      SquareClustering(matrix, kBufferPages, nullptr);
  const std::vector<uint32_t> order = ScheduleClusters(clusters, input,
                                                       nullptr);

  IoStats io_delta;
  StorageBackend::MeasuredIo measured_delta;
  uint64_t result_pairs = 0;
  const auto run_once = [&]() -> Status {
    const IoStats io_before = disk.stats();
    const StorageBackend::MeasuredIo m_before = disk.measured();
    BufferPool pool(&disk, kBufferPages);
    CountingSink sink;
    const Status status = ExecuteClusteredJoin(input, clusters, order,
                                               &pool, &sink, nullptr);
    if (!status.ok()) return status;
    io_delta = disk.stats().Delta(io_before);
    const StorageBackend::MeasuredIo m = disk.measured();
    measured_delta.read_syscalls = m.read_syscalls - m_before.read_syscalls;
    measured_delta.read_bytes = m.read_bytes - m_before.read_bytes;
    measured_delta.checksum_checks =
        m.checksum_checks - m_before.checksum_checks;
    result_pairs = sink.count();
    return Status::OK();
  };

  // Same untimed warm-up rationale as BM_ClusterJoinExecutor: normalize
  // the modeled head position so every timed iteration's delta is the
  // steady-state stream.
  if (const Status status = run_once(); !status.ok()) {
    state.SkipWithError(status.message().c_str());
    return;
  }
  for (auto _ : state) {
    if (const Status status = run_once(); !status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
  }

  // The modeled stream must not depend on the backend (the determinism
  // invariant the storage layer promises): remember the sim row's
  // counters and fail the file row on any divergence.
  static std::optional<IoStats> sim_delta;
  if (!use_file) {
    sim_delta = io_delta;
  } else if (sim_delta && !(*sim_delta == io_delta)) {
    state.SkipWithError("modeled I/O diverged between sim and file backends");
  }

  state.counters["pages_read"] = static_cast<double>(io_delta.pages_read);
  state.counters["seeks"] = static_cast<double>(io_delta.seeks);
  state.counters["read_syscalls"] =
      static_cast<double>(measured_delta.read_syscalls);
  state.counters["read_bytes"] =
      static_cast<double>(measured_delta.read_bytes);
  state.counters["checksum_checks"] =
      static_cast<double>(measured_delta.checksum_checks);
  state.counters["result_pairs"] = static_cast<double>(result_pairs);
}
BENCHMARK(BM_ClusterJoinMeasuredIo)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_JoinStringPages(benchmark::State& state) {
  const size_t n = 8192;
  const uint32_t L = 500;
  const auto x = MakeString(n, 29);
  WindowJoinOptions options;
  options.window_len = L;
  CountingSink sink;
  const WindowRange range{0, 1024};
  for (auto _ : state) {
    JoinStringWindows(x, x, range, range, options, 5, 4, &sink, nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 1024);
}
BENCHMARK(BM_JoinStringPages);

// --- Distance-kernel sweep (scalar reference vs kernel layer) ----------
//
// One query record against a block, the inner loop of JoinPages: the
// scalar side is the pre-kernel path (per-pair WithinDistance over
// unpadded rows), the tiled side is kernels::CountWithinBlock over the
// padded PageBlock layout. Both must agree on every count — the sweep
// aborts if they do not, so the benchmark doubles as an end-to-end
// decision check at throughput-sized inputs.

/// Seconds consumed by `fn()` repeated `iters` times.
template <typename Fn>
double TimeSeconds(uint32_t iters, Fn&& fn) {
  const int64_t start = obs::MonotonicNanos();
  for (uint32_t it = 0; it < iters; ++it) fn();
  const int64_t stop = obs::MonotonicNanos();
  return static_cast<double>(stop - start) * 1e-9;
}

/// Repeats `fn` until it has run for at least `min_seconds` total, then
/// returns the per-run seconds (adaptive iteration count so quick runs on
/// fast kernels still measure above timer resolution).
template <typename Fn>
double SecondsPerRun(double min_seconds, Fn&& fn) {
  uint32_t iters = 1;
  for (;;) {
    const double elapsed = TimeSeconds(iters, fn);
    if (elapsed >= min_seconds || iters >= (1u << 24))
      return elapsed / iters;
    iters = elapsed <= 0.0
                ? iters * 16
                : std::max(iters * 2,
                           static_cast<uint32_t>(
                               iters * (min_seconds / elapsed) * 1.2));
  }
}

std::string FormatRate(double per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", per_sec);
  return buf;
}

void RunKernelSweep(const bench::BenchArgs& args) {
  const uint32_t rows = args.quick ? 1024 : 4096;
  const uint32_t queries = args.quick ? 8 : 32;
  const double min_measure_sec = args.quick ? 0.002 : 0.02;
  // d = 2 (the paper's spatial data) and d = 3 run the narrow 2- and
  // 4-float rows; the rest run lane multiples.
  const size_t kDims[] = {2, 3, 8, 16, 32, 64};
  const Norm kNorms[] = {Norm::kL1, Norm::kL2, Norm::kLInf};

  bench::PrintTableHeader(
      "distance_kernels",
      {"rec_s_scalar", "rec_s_tiled", "terms_s_scalar", "terms_s_tiled",
       "speedup", "simd"});

  for (const size_t dims : kDims) {
    const uint32_t stride = kernels::PaddedWidth(dims);
    // One shared point cloud per dims: tight rows for the scalar path,
    // padded rows (the PageBlock layout) for the kernels.
    Rng rng(0xD157 + dims);
    std::vector<float> tight(size_t(rows) * dims);
    for (float& v : tight) v = static_cast<float>(rng.UniformDouble());
    std::vector<float> padded(size_t(rows) * stride, 0.0f);
    for (uint32_t j = 0; j < rows; ++j) {
      std::copy_n(tight.data() + size_t(j) * dims, dims,
                  padded.data() + size_t(j) * stride);
    }
    std::vector<float> q_tight(size_t(queries) * dims);
    for (float& v : q_tight) v = static_cast<float>(rng.UniformDouble());
    std::vector<float> q_padded(size_t(queries) * stride, 0.0f);
    for (uint32_t q = 0; q < queries; ++q) {
      std::copy_n(q_tight.data() + size_t(q) * dims, dims,
                  q_padded.data() + size_t(q) * stride);
    }
    const kernels::BlockView block{padded.data(), rows, stride};

    for (const Norm norm : kNorms) {
      // eps at the median sampled query-row distance: roughly half the
      // rows pass, so neither path spends the sweep early-abandoning.
      std::vector<double> sample;
      const uint32_t sample_rows = std::min<uint32_t>(rows, 256);
      for (uint32_t q = 0; q < std::min<uint32_t>(queries, 8); ++q) {
        for (uint32_t j = 0; j < sample_rows; ++j) {
          sample.push_back(VectorDistance(
              {q_tight.data() + size_t(q) * dims, dims},
              {tight.data() + size_t(j) * dims, dims}, norm));
        }
      }
      std::nth_element(sample.begin(), sample.begin() + sample.size() / 2,
                       sample.end());
      const double eps = sample[sample.size() / 2];

      uint64_t scalar_count = 0;
      const double scalar_sec = SecondsPerRun(min_measure_sec, [&]() {
        uint64_t count = 0;
        for (uint32_t q = 0; q < queries; ++q) {
          const std::span<const float> x(q_tight.data() + size_t(q) * dims,
                                         dims);
          for (uint32_t j = 0; j < rows; ++j) {
            count += WithinDistance(
                x, {tight.data() + size_t(j) * dims, dims}, norm, eps);
          }
        }
        benchmark::DoNotOptimize(count);
        scalar_count = count;
      });

      uint64_t tiled_count = 0;
      const double tiled_sec = SecondsPerRun(min_measure_sec, [&]() {
        uint64_t count = 0;
        for (uint32_t q = 0; q < queries; ++q) {
          count += kernels::CountWithinBlock(
              q_padded.data() + size_t(q) * stride, block, dims, norm, eps);
        }
        benchmark::DoNotOptimize(count);
        tiled_count = count;
      });

      if (scalar_count != tiled_count) {
        std::fprintf(stderr,
                     "FATAL: kernel sweep mismatch (%s d=%zu): scalar=%llu "
                     "tiled=%llu\n",
                     NormName(norm).c_str(), dims,
                     static_cast<unsigned long long>(scalar_count),
                     static_cast<unsigned long long>(tiled_count));
        std::exit(1);
      }

      const double pairs = double(queries) * rows;
      bench::PrintTableRow(
          {NormName(norm) + "/d" + std::to_string(dims),
           FormatRate(pairs / scalar_sec), FormatRate(pairs / tiled_sec),
           FormatRate(pairs * double(dims) / scalar_sec),
           FormatRate(pairs * double(dims) / tiled_sec),
           FormatRate(scalar_sec / tiled_sec),
           kernels::HasExplicitSimd() ? "1" : "0"});
    }
  }
}

/// One tight Gaussian blob per page, blob centers marching along the
/// main diagonal with unit gaps: record i sits near (i / per_page) in
/// every dimension. Any single-coordinate sort preserves blob order, so
/// the STR pack keeps each blob in its own page regardless of
/// dimensionality, page MBRs are pairwise far apart, and an eps well
/// under the gap yields an exactly diagonal prediction matrix whose
/// clusters read long contiguous page runs.
VectorData MakeDiagonalBlobs(size_t count, size_t dims, size_t per_page,
                             uint64_t seed) {
  Rng rng(seed);
  VectorData data;
  data.dims = dims;
  data.values.reserve(count * dims);
  for (size_t i = 0; i < count; ++i) {
    const double base = static_cast<double>(i / per_page);
    for (size_t d = 0; d < dims; ++d) {
      data.values.push_back(
          static_cast<float>(base + rng.Gaussian(0.0, 0.01)));
    }
  }
  return data;
}

// --- kNN-join sweep (pm-kNN vs brute force) ----------------------------
//
// The kNN engine's adaptive-eps pruning (core/knn_join.h) against the
// brute-force expansion of every page pair, at k = 8 on the diagonal
// clustered workload. Pruning is answer-preserving by construction, so
// the per-row neighbor sequences must be byte-identical across rows —
// the sweep aborts on divergence — and on clustered data the
// candidate-matrix bound must actually cut modeled I/O: the pm_knn row's
// pages_read has to come in strictly below brute force or the sweep
// exits nonzero. Both tripwires run on every CI bench-smoke invocation;
// records_s is the collapse metric tools/bench_compare.py watches.

std::vector<std::pair<double, uint64_t>> FlattenNeighbors(
    const KnnResultSink& results) {
  std::vector<std::pair<double, uint64_t>> out;
  for (uint64_t i = 0; i < results.num_records(); ++i) {
    for (const KnnResultSink::Neighbor& nb : results.SortedNeighbors(i)) {
      out.emplace_back(nb.stat, nb.id);
    }
  }
  return out;
}

void RunKnnJoinSweep(const bench::BenchArgs& args) {
  constexpr size_t kDims = 8;
  constexpr uint32_t kK = 8;
  constexpr uint32_t kBufferPages = 16;
  const size_t n = args.quick ? 3000 : 12000;
  const uint32_t reps = args.quick ? 2 : 4;

  SimulatedDisk disk;
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 1024;
  const size_t per_page = ds_options.page_size_bytes / (kDims * sizeof(float));
  // Different seeds on the two sides: blobs still align page-for-page
  // (same diagonal centers), but no record pair is identical, so the
  // k-th bound is a real distance rather than zero.
  const VectorData r_raw = MakeDiagonalBlobs(n, kDims, per_page, 0xA11CE);
  const VectorData s_raw = MakeDiagonalBlobs(n, kDims, per_page, 0xB0B);
  auto r = VectorDataset::Build(&disk, "knn_r", r_raw, ds_options).value();
  auto s = VectorDataset::Build(&disk, "knn_s", s_raw, ds_options).value();
  const KnnCandidateMatrix matrix = KnnCandidateMatrix::Build(
      r.page_mbrs(), s.page_mbrs(), Norm::kL2, nullptr);

  bench::PrintTableHeader(
      "knn_join",
      {"records_s", "wall_ms", "pages_read", "distance_terms",
       "result_pairs"});

  struct RowConfig {
    const char* label;
    bool prune;
  };
  constexpr RowConfig kRows[] = {{"pm_knn", true}, {"brute", false}};
  std::optional<std::vector<std::pair<double, uint64_t>>> pm_answers;
  uint64_t pm_pages = 0;
  for (const RowConfig& cfg : kRows) {
    KnnJoinOptions options;
    options.k = kK;
    options.norm = Norm::kL2;
    options.prune = cfg.prune;

    IoStats io_delta;
    OpCounters ops;
    uint64_t result_pairs = 0;
    std::vector<std::pair<double, uint64_t>> answers;
    int64_t wall_ns = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      KnnResultSink results(r.num_records(), kK);
      BufferPool pool(&disk, kBufferPages);
      ops = OpCounters{};
      const IoStats io_before = disk.stats();
      const int64_t t0 = obs::MonotonicNanos();
      const Status status =
          KnnJoinVectors(r, s, matrix, options, &pool, &results, &ops);
      wall_ns += obs::MonotonicNanos() - t0;
      if (!status.ok()) {
        std::fprintf(stderr, "knn_join[%s]: %s\n", cfg.label,
                     status.ToString().c_str());
        return;
      }
      io_delta = disk.stats().Delta(io_before);
      CountingSink sink;
      result_pairs = results.Emit(&sink, nullptr);
      if (rep == 0) answers = FlattenNeighbors(results);
    }

    if (!pm_answers.has_value()) {
      pm_answers = std::move(answers);
      pm_pages = io_delta.pages_read;
    } else {
      if (*pm_answers != answers) {
        std::fprintf(stderr,
                     "FATAL: knn_join: %s neighbor sets diverge from "
                     "pm_knn (pruning must be answer-preserving)\n",
                     cfg.label);
        std::exit(1);
      }
      if (pm_pages >= io_delta.pages_read) {
        std::fprintf(
            stderr,
            "FATAL: knn_join: pm_knn read %llu pages but %s read %llu "
            "(pruning must strictly cut modeled I/O on clustered data)\n",
            static_cast<unsigned long long>(pm_pages), cfg.label,
            static_cast<unsigned long long>(io_delta.pages_read));
        std::exit(1);
      }
    }

    const double wall_s = static_cast<double>(wall_ns) * 1e-9;
    const double records =
        static_cast<double>(reps) * static_cast<double>(n);
    char wall_ms[32];
    std::snprintf(wall_ms, sizeof(wall_ms), "%.4g", wall_s * 1e3);
    bench::PrintTableRow({cfg.label, FormatRate(records / wall_s), wall_ms,
                          std::to_string(io_delta.pages_read),
                          std::to_string(ops.distance_terms),
                          std::to_string(result_pairs)});
  }
}

}  // namespace
}  // namespace pmjoin

int main(int argc, char** argv) {
  const pmjoin::bench::BenchArgs args =
      pmjoin::bench::BenchArgs::Parse(argc, argv);
  pmjoin::obs::RunReport report;
  if (args.json) {
    report.SetContext("binary", "bench_kernels");
    report.SetContext("quick", static_cast<int64_t>(args.quick ? 1 : 0));
    report.SetContext(
        "simd",
        static_cast<int64_t>(pmjoin::kernels::HasExplicitSimd() ? 1 : 0));
    pmjoin::bench::SetReportArtifact(&report);
  }
  pmjoin::RunKernelSweep(args);
  pmjoin::RunKnnJoinSweep(args);
  pmjoin::bench::SetReportArtifact(nullptr);
  if (args.json) {
    report.CaptureSession();
    const pmjoin::Status st = report.WriteFile("BENCH_kernels.json");
    if (!st.ok()) {
      std::fprintf(stderr, "BENCH_kernels.json: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  // The google-benchmark suite runs after the sweep; --quick keeps smoke
  // runs to the sweep alone. Initialize() consumes the --benchmark* flags
  // and ignores the harness flags BenchArgs already handled.
  if (!args.quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
