// serve_mixed: a JoinServer over a FileBackend answering a closed-loop
// stream of 60-d self-join jobs — ε-jobs alternating SC and CC, half on a
// popular ε (matrix-memo hits) and half on a fresh ε (builds), plus kNN
// jobs sharing one candidate matrix across k.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "core/knn_join.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/file_backend.h"
#include "server/artifact_cache.h"
#include "server/job.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pmjoin::Algorithm;
using pmjoin::FileBackend;
using pmjoin::IoStats;
using pmjoin::Norm;
using pmjoin::OpCounters;
using pmjoin::Result;
using pmjoin::Status;
using pmjoin::server::ArtifactCache;
using pmjoin::server::DatasetSpec;
using pmjoin::server::JobSpec;
using pmjoin::server::JoinServer;

constexpr uint32_t kDims = 60;
constexpr uint32_t kDatasetSeed = 13;
constexpr uint32_t kCycle = 12;

/// A file backend over an emptied `dir` (left in place; the caller owns
/// the scratch directory).
Result<std::unique_ptr<FileBackend>> FreshBackend(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return FileBackend::Open(dir);
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* backend() const override { return "file"; }

  Status Prepare() override {
    // The workload seed generates the job stream (the fresh ε values); the
    // dataset is one fixed 60-d stand-in, because the kNN jobs' cost varies
    // by a fifth between generator seeds.
    char spec[64];
    std::snprintf(spec, sizeof(spec), "clusters/%u/%u/%u",
                  config_.tiny ? 800u : 5000u, kDatasetSeed, kDims);
    spec_text_ = spec;
    Result<DatasetSpec> parsed = DatasetSpec::Parse(spec_text_);
    if (!parsed.ok()) return parsed.status();
    spec_ = parsed.value();
    data_ = spec_.Generate();
    return Status::OK();
  }

  Status Setup() override {
    Result<std::unique_ptr<FileBackend>> disk =
        FreshBackend(config_.scratch_dir + "/serve");
    if (!disk.ok()) return disk.status();
    disk_ = std::move(disk).value();
    server_ = std::make_unique<JoinServer>(disk_.get(), ServerOptions());
    PMJOIN_RETURN_IF_ERROR(server_->Start());
    for (const JobSpec& job : WarmupJobs()) {
      Result<uint64_t> index = server_->SubmitBlocking(job);
      if (!index.ok()) return index.status();
      const JoinServer::QueryResult& result = server_->Wait(index.value());
      if (result.row.status != "ok")
        return Status::Internal("warm-up failed: " + result.row.error);
    }
    return Status::OK();
  }

  void Teardown() override {
    server_.reset();
    disk_.reset();
    // Removed here so the next Setup's timed FreshBackend finds nothing.
    std::error_code ec;
    std::filesystem::remove_all(config_.scratch_dir + "/serve", ec);
  }

  uint64_t CycleLength() const override { return kCycle; }

  QueryOutcome Run(uint64_t i) override {
    const JobSpec job = Job(i);
    QueryOutcome out;
    out.key = Key(job);
    out.knn = job.k > 0;
    const int64_t start = NowNs();
    const Result<uint64_t> index = server_->SubmitBlocking(job);
    const int64_t submitted = NowNs();
    if (!index.ok()) {
      out.error = index.status().message();
      out.wall_ms = static_cast<double>(submitted - start) / 1e6;
      return out;
    }
    const JoinServer::QueryResult& result = server_->Wait(index.value());
    out.wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    out.submit_us = static_cast<double>(submitted - start) / 1e3;
    out.queue_ms = static_cast<double>(result.row.queue_ns) / 1e6;
    out.exec_ms = static_cast<double>(result.row.exec_ns) / 1e6;
    out.cache_hit = result.row.matrix_cache_hit;
    if (result.row.status != "ok") {
      out.error = result.row.error;
      return out;
    }
    out.ok = true;
    for (const auto& [r, s] : result.pairs) out.digest.Add(r, s);
    out.io = result.row.join_io;
    out.ops = result.row.ops;
    out.modeled_s = result.report.TotalSeconds();
    return out;
  }

  Status Replay(uint64_t n, SpanLog* log, std::vector<QueryOutcome>* outcomes,
                std::vector<LayerCounts>* counts) override {
    PMJOIN_RETURN_IF_ERROR(ProbeBuildAndPersist(log));
    Result<std::unique_ptr<FileBackend>> opened =
        FreshBackend(config_.scratch_dir + "/replay");
    if (!opened.ok()) return opened.status();
    const std::unique_ptr<FileBackend> disk = std::move(opened).value();
    const JoinServer::Options options = ServerOptions();
    ArtifactCache cache(disk.get(),
                        ArtifactCache::Options{options.page_size_bytes,
                                               options.persist_datasets,
                                               options.hierarchical_matrix,
                                               options.filter_iterations});
    pmjoin::BufferPool pool(disk.get(), options.pool_pages);
    const std::vector<JobSpec> warmups = WarmupJobs();
    for (uint64_t i = 0; i < warmups.size() + n; ++i) {
      const bool warm = i < warmups.size();
      log->BeginQuery(static_cast<uint32_t>(outcomes->size()));
      QueryOutcome out;
      LayerCounts layer;
      layer.warmup = warm;
      PMJOIN_RETURN_IF_ERROR(ReplayJob(
          warm ? warmups[i] : Job(i - warmups.size()), options, disk.get(),
          &cache, &pool, log, &out, &layer));
      outcomes->push_back(std::move(out));
      counts->push_back(layer);
    }
    return Status::OK();
  }

  double setup_write_mb() const override { return setup_write_mb_; }

  void Verify(const std::vector<QueryOutcome>& outcomes,
              std::vector<bool>* wrong,
              std::vector<std::string>* notes) override {
    // ε-jobs: one brute-force self join at the largest ε; each job's
    // expected set is the subset passing WithinDistance at its own ε.
    // kNN jobs: one brute-force kNN at the largest k; a row's first k
    // neighbours are its k nearest.
    const std::vector<std::pair<uint64_t, uint64_t>> superset =
        ReferenceVectorPairs(data_, data_, kPopularEps * (1 + kFreshSpread),
                             /*self_join=*/true);
    const std::vector<std::vector<uint64_t>> knn =
        ReferenceKnnRows(data_, data_, kMaxK, /*self_join=*/true);
    std::map<std::string, PairDigest> expected;
    for (size_t q = 0; q < outcomes.size(); ++q) {
      const JobSpec job = Job(q);
      auto [it, inserted] = expected.try_emplace(Key(job));
      if (inserted && job.k > 0) {
        for (size_t row = 0; row < knn.size(); ++row) {
          for (size_t t = 0; t < job.k && t < knn[row].size(); ++t)
            it->second.Add(row, knn[row][t]);
        }
      } else if (inserted) {
        for (const auto& [a, b] : superset) {
          if (pmjoin::WithinDistance({data_.record(a), kDims},
                                     {data_.record(b), kDims}, Norm::kL2,
                                     job.eps))
            it->second.Add(a, b);
        }
      }
      if (outcomes[q].key != it->first || !(outcomes[q].digest == it->second))
        (*wrong)[q] = true;
    }
    notes->push_back(
        "serve_mixed: every query checked against ReferenceVectorJoin / "
        "ReferenceKnnJoin");
  }

 private:
  /// The popular ε is fixed, like the dataset. On the shipped page packing
  /// it marks about half of the page grid (in 60 dimensions page boxes
  /// overlap heavily); fresh ε values sit up to 4% above it, so every
  /// ε-job does similar work.
  static constexpr double kPopularEps = 0.521;
  static constexpr double kFreshSpread = 0.04;
  static constexpr uint32_t kMaxK = 16;

  static JoinServer::Options ServerOptions() {
    // Library defaults, plus persisting datasets to the file backend.
    JoinServer::Options options;
    options.persist_datasets = true;
    return options;
  }

  std::string Key(const JobSpec& job) const {
    char buf[64];
    if (job.k > 0)
      std::snprintf(buf, sizeof(buf), "knn k=%u", job.k);
    else
      std::snprintf(buf, sizeof(buf), "%s eps=%.17g",
                    pmjoin::server::EngineToken(job.engine).c_str(), job.eps);
    return buf;
  }

  std::vector<JobSpec> WarmupJobs() const {
    // One ε-join (builds and persists the dataset, memoizes the popular
    // matrix) and one kNN join (builds the shared candidate matrix).
    JobSpec eps_job = Job(0);
    JobSpec knn_job = Job(2);
    eps_job.id = "warm-eps";
    knn_job.id = "warm-knn";
    return {eps_job, knn_job};
  }

  /// Stream job i. Per cycle of 12: eight ε-jobs alternating SC/CC, half
  /// on the popular ε and half on a fresh one, and four kNN jobs with
  /// k = 1, 4, 8, 16.
  JobSpec Job(uint64_t i) const {
    static constexpr struct {
      int k;  // 0 for an ε-job
      bool cc;
      bool popular;
    } kPattern[kCycle] = {{0, false, true}, {0, true, false}, {1, false, false},
                          {0, false, false}, {0, true, true}, {4, false, false},
                          {0, false, true}, {0, true, false}, {8, false, false},
                          {0, false, false}, {0, true, true}, {16, false, false}};
    const auto& slot = kPattern[i % kCycle];
    JobSpec job;
    job.r = spec_text_;
    job.s = spec_text_;
    if (slot.k > 0) {
      job.k = static_cast<uint32_t>(slot.k);
      return job;
    }
    job.engine = slot.cc ? Algorithm::kCc : Algorithm::kSc;
    // A fresh ε is a random draw per (seed, job), so it misses the memo.
    pmjoin::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + i);
    const double frac = std::max(rng.UniformDouble(), 1e-9);
    job.eps = slot.popular ? kPopularEps
                           : kPopularEps * (1.0 + kFreshSpread * frac);
    return job;
  }

  /// data.build / io.persist: the dataset Build and Persist the server
  /// performs inside its first query, timed alone on a throwaway backend.
  Status ProbeBuildAndPersist(SpanLog* log) {
    Result<std::unique_ptr<FileBackend>> opened =
        FreshBackend(config_.scratch_dir + "/probe");
    if (!opened.ok()) return opened.status();
    std::unique_ptr<FileBackend> disk = std::move(opened).value();
    log->BeginQuery(kSetupQuery);
    pmjoin::VectorData data = spec_.Generate();
    std::optional<pmjoin::VectorDataset> built;
    {
      SpanScope span(log, "data.build");
      Result<pmjoin::VectorDataset> ds = pmjoin::VectorDataset::Build(
          disk.get(), spec_.Canonical(), std::move(data), {});
      if (!ds.ok()) return ds.status();
      built.emplace(std::move(ds).value());
    }
    const uint64_t written = disk->measured().write_bytes;
    {
      SpanScope span(log, "io.persist");
      PMJOIN_RETURN_IF_ERROR(built->Persist(disk.get()));
    }
    setup_write_mb_ =
        static_cast<double>(disk->measured().write_bytes - written) / 1e6;
    return Status::OK();
  }

  /// JoinServer::Execute for one job, layer by layer: the artifact-cache
  /// lookups, then RunVector's clustered path or RunKnnJoin's expansion
  /// over the shared pool.
  Status ReplayJob(const JobSpec& job, const JoinServer::Options& options,
                   FileBackend* disk, ArtifactCache* cache,
                   pmjoin::BufferPool* pool, SpanLog* log, QueryOutcome* out,
                   LayerCounts* counts) {
    SpanScope root(log, "query");
    const int64_t start = NowNs();
    const pmjoin::VectorDataset* rd = nullptr;
    const pmjoin::VectorDataset* sd = nullptr;
    {
      SpanScope span(log, "server.cache");
      Result<const pmjoin::VectorDataset*> r = cache->GetDataset(spec_);
      if (!r.ok()) return r.status();
      Result<const pmjoin::VectorDataset*> s = cache->GetDataset(spec_);
      if (!s.ok()) return s.status();
      rd = r.value();
      sd = s.value();
    }
    counts->dims = kDims;
    DigestSink sink;
    OpCounters ops;
    IoStats io_before;
    pmjoin::StorageBackend::MeasuredIo measured_before;
    bool hit = false;
    if (job.k > 0) {
      const ArtifactCache::CachedKnnMatrix* matrix = nullptr;
      {
        SpanScope span(log, "core.knn_matrix");
        Result<const ArtifactCache::CachedKnnMatrix*> km =
            cache->GetKnnMatrix(spec_, spec_, options.norm, &hit);
        if (!km.ok()) return km.status();
        matrix = km.value();
        if (hit) span.Rename("server.cache");
      }
      counts->knn = true;
      io_before = disk->stats();
      measured_before = disk->measured();
      ops = matrix->build_ops;
      pmjoin::KnnJoinOptions knn_options;
      knn_options.k = job.k;
      knn_options.norm = options.norm;
      knn_options.self_join = rd == sd;
      pmjoin::KnnResultSink results(rd->num_records(), job.k);
      {
        SpanScope span(log, "core.knn_join");
        PMJOIN_RETURN_IF_ERROR(pmjoin::KnnJoinVectors(
            *rd, *sd, matrix->matrix, knn_options, pool, &results, &ops));
      }
      SpanScope span(log, "core.knn_emit");
      results.Emit(&sink, &ops);
    } else {
      const ArtifactCache::CachedMatrix* matrix = nullptr;
      {
        SpanScope span(log, "core.matrix");
        Result<const ArtifactCache::CachedMatrix*> cm =
            cache->GetMatrix(spec_, spec_, job.eps, options.norm, &hit);
        if (!cm.ok()) return cm.status();
        matrix = cm.value();
        if (hit) span.Rename("server.cache");
      }
      counts->eps_query = true;
      counts->matrix_built = !hit;
      counts->build_mbr_tests = hit ? 0 : matrix->build_ops.mbr_tests;
      counts->marked_entries = matrix->matrix.MarkedCount();
      counts->matrix_selectivity = matrix->matrix.Selectivity();
      io_before = disk->stats();
      measured_before = disk->measured();
      ops = matrix->build_ops;
      pmjoin::VectorPairJoiner joiner(rd, sd, job.eps, options.norm, rd == sd);
      pmjoin::JoinInput input;
      input.r_file = rd->file_id();
      input.s_file = sd->file_id();
      input.r_pages = rd->num_pages();
      input.s_pages = sd->num_pages();
      input.self_join = rd == sd;
      input.joiner = &joiner;
      ClusteredReplay query;
      query.input = &input;
      query.matrix = &matrix->matrix;
      query.algorithm = job.engine;
      query.buffer_pages = options.default_buffer_pages;
      query.seed = options.seed;
      query.pool = pool;
      query.join_span = "geom.join";
      PMJOIN_RETURN_IF_ERROR(ReplayClustered(query, log, &sink, &ops, counts));
    }
    PMJOIN_RETURN_IF_ERROR(pool->CheckQuiescent());
    const pmjoin::StorageBackend::MeasuredIo& after = disk->measured();
    counts->measured.read_syscalls =
        after.read_syscalls - measured_before.read_syscalls;
    counts->measured.read_bytes = after.read_bytes - measured_before.read_bytes;
    counts->measured.checksum_checks =
        after.checksum_checks - measured_before.checksum_checks;
    out->key = Key(job);
    out->knn = job.k > 0;
    out->cache_hit = hit;
    out->ok = true;
    out->digest = sink.digest();
    out->io = disk->stats().Delta(io_before);
    out->ops = ops;
    FillModeled(disk->model(), out, counts);
    out->wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    return Status::OK();
  }

  WorkloadConfig config_;
  std::string spec_text_;
  DatasetSpec spec_;
  pmjoin::VectorData data_;
  double setup_write_mb_ = 0.0;
  std::unique_ptr<FileBackend> disk_;
  std::unique_ptr<JoinServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const WorkloadConfig& config) {
  return std::make_unique<ServeWorkload>(config);
}

}  // namespace perfbench
