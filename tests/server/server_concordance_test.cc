// Server ↔ standalone concordance (ISSUE 6 correctness gate): every
// query served by a JoinServer — warm or cold cache, shared pool, any
// submission interleaving — must produce result pairs and OpCounters
// byte-identical to a standalone JoinDriver run of the same job on a
// fresh backend. On top of concordance this file checks the server-only
// properties: the exact I/O-attribution ledger, artifact-cache savings
// over a mixed-ε stream, admission rejection, and cross-process dataset
// persistence.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_driver.h"
#include "data/vector_dataset.h"
#include "io/storage_backend.h"
#include "server/job.h"
#include "server/server.h"
#include "server/server_report.h"
#include "test_util.h"

namespace pmjoin {
namespace server {
namespace {

using testing_util::MakeTestBackend;

constexpr uint32_t kPageBytes = 1024;
constexpr uint32_t kBufferPages = 24;

JoinServer::Options ServerOptions() {
  JoinServer::Options options;
  options.pool_pages = 96;
  options.default_buffer_pages = kBufferPages;
  options.page_size_bytes = kPageBytes;
  options.seed = 1;
  return options;
}

JobSpec MakeJob(const std::string& r, const std::string& s, double eps,
                Algorithm engine = Algorithm::kSc) {
  JobSpec job;
  job.r = r;
  job.s = s;
  job.eps = eps;
  job.engine = engine;
  return job;
}

JobSpec MakeKnnJob(const std::string& r, const std::string& s, uint32_t k) {
  JobSpec job;
  job.r = r;
  job.s = s;
  job.k = k;
  return job;
}

struct StandaloneRun {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  OpCounters ops;
  IoStats join_io;
  uint64_t result_pairs = 0;
};

/// Runs `job` the way pmjoin_cli would: fresh backend, fresh datasets,
/// private buffer pool, matrix built from scratch. This is the oracle the
/// server must match.
StandaloneRun RunStandalone(const JobSpec& job) {
  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  const DatasetSpec r_spec = *DatasetSpec::Parse(job.r);
  const DatasetSpec s_spec = *DatasetSpec::Parse(job.s);
  VectorDataset::Options build{kPageBytes};
  auto r = VectorDataset::Build(disk.get(), r_spec.Canonical(),
                                r_spec.Generate(), build);
  PMJOIN_CHECK(r.ok());

  JoinOptions options;
  options.algorithm = job.engine;
  options.buffer_pages =
      job.buffer_pages == 0 ? kBufferPages : job.buffer_pages;
  options.page_size_bytes = kPageBytes;
  options.seed = 1;

  JoinDriver driver(disk.get());
  CollectingSink sink;
  Result<JoinReport> report(Status::Internal("unset"));
  std::optional<VectorDataset> s;
  if (r_spec.Canonical() != s_spec.Canonical()) {
    auto built = VectorDataset::Build(disk.get(), s_spec.Canonical(),
                                      s_spec.Generate(), build);
    PMJOIN_CHECK(built.ok());
    s.emplace(std::move(built).value());
  }
  const VectorDataset& s_ref = s.has_value() ? *s : *r;
  report = job.k > 0
               ? driver.RunKnnJoin(*r, s_ref, job.k, options, &sink)
               : driver.RunVector(*r, s_ref, job.eps, options, &sink);
  PMJOIN_CHECK(report.ok());
  StandaloneRun run;
  run.pairs = sink.Sorted();
  run.ops = report->ops;
  run.join_io = report->io;
  run.result_pairs = report->result_pairs;
  return run;
}

void ExpectConcordant(const JoinServer::QueryResult& served,
                      const StandaloneRun& standalone,
                      const std::string& label) {
  EXPECT_EQ(served.row.status, "ok") << label << ": " << served.row.error;
  EXPECT_EQ(served.pairs, standalone.pairs) << label;
  EXPECT_EQ(served.row.ops, standalone.ops) << label;
  EXPECT_EQ(served.row.result_pairs, standalone.result_pairs) << label;
}

void ExpectExactLedger(const ServerReport& report) {
  IoStats attributed;
  for (const QueryRow& row : report.queries()) {
    attributed.pages_read += row.io.pages_read;
    attributed.pages_written += row.io.pages_written;
    attributed.seeks += row.io.seeks;
    attributed.sequential_reads += row.io.sequential_reads;
    attributed.buffer_hits += row.io.buffer_hits;
  }
  const IoStats unattributed = report.UnattributedIo();
  const IoStats& totals = report.io_totals();
  EXPECT_EQ(attributed.pages_read + unattributed.pages_read,
            totals.pages_read);
  EXPECT_EQ(attributed.pages_written + unattributed.pages_written,
            totals.pages_written);
  EXPECT_EQ(attributed.seeks + unattributed.seeks, totals.seeks);
  EXPECT_EQ(attributed.sequential_reads + unattributed.sequential_reads,
            totals.sequential_reads);
  EXPECT_EQ(attributed.buffer_hits + unattributed.buffer_hits,
            totals.buffer_hits);
}

// The gate: concurrent submitters, two dataset pairs, mixed ε, every
// served engine — each result byte-identical to a cold standalone run.
TEST(ServerConcordanceTest, ConcurrentMixedQueriesMatchStandalone) {
  std::vector<JobSpec> jobs;
  const std::string pair_a_r = "road/1500/11";
  const std::string pair_a_s = "road/1500/12";
  const std::string pair_b_r = "uniform/900/5/4";
  const std::string pair_b_s = "uniform/900/6/4";
  for (const Algorithm engine :
       {Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kRandomSc,
        Algorithm::kSc, Algorithm::kCc}) {
    jobs.push_back(MakeJob(pair_a_r, pair_a_s, 0.01, engine));
    jobs.push_back(MakeJob(pair_b_r, pair_b_s, 0.2, engine));
  }
  // Warm repeats (cache hits) and a self-join.
  jobs.push_back(MakeJob(pair_a_r, pair_a_s, 0.01, Algorithm::kSc));
  jobs.push_back(MakeJob(pair_b_r, pair_b_s, 0.2, Algorithm::kCc));
  jobs.push_back(MakeJob(pair_a_r, pair_a_r, 0.01, Algorithm::kSc));

  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  JoinServer join_server(disk.get(), ServerOptions());
  ASSERT_TRUE(join_server.Start().ok());

  // Four submitter threads racing into the bounded queue.
  std::vector<Result<uint64_t>> indices(jobs.size(),
                                        Status::Internal("unset"));
  std::vector<std::thread> submitters;
  const size_t kSubmitters = 4;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = t; i < jobs.size(); i += kSubmitters)
        indices[i] = join_server.SubmitBlocking(jobs[i]);
    });
  }
  for (std::thread& thread : submitters) thread.join();
  join_server.WaitAll();
  join_server.Shutdown();

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(indices[i].ok()) << indices[i].status().ToString();
    const JoinServer::QueryResult& served = join_server.Wait(*indices[i]);
    const StandaloneRun standalone = RunStandalone(jobs[i]);
    ExpectConcordant(served, standalone,
                     "job " + std::to_string(i) + " engine " +
                         EngineToken(jobs[i].engine));
    EXPECT_FALSE(served.pairs.empty()) << "job " << i << " found nothing";
  }

  // The warm repeats must have been served from the matrix cache, and the
  // ledger must balance exactly.
  ServerReport report = join_server.BuildReport();
  EXPECT_GE(join_server.cache_stats().matrix_hits, 2u);
  EXPECT_EQ(join_server.cache_stats().dataset_builds, 4u);
  EXPECT_EQ(report.queries().size(), jobs.size());
  ExpectExactLedger(report);
}

// Warm-cache parity in isolation: the same job twice; the second run hits
// the matrix cache yet reports identical pairs and OpCounters.
TEST(ServerConcordanceTest, WarmCacheQueryMatchesColdStandalone) {
  const JobSpec job = MakeJob("road/1200/3", "road/1200/4", 0.015);
  const StandaloneRun standalone = RunStandalone(job);

  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  JoinServer join_server(disk.get(), ServerOptions());
  ASSERT_TRUE(join_server.Start().ok());
  auto cold = join_server.SubmitBlocking(job);
  auto warm = join_server.SubmitBlocking(job);
  ASSERT_TRUE(cold.ok() && warm.ok());
  join_server.WaitAll();

  const JoinServer::QueryResult& cold_result = join_server.Wait(*cold);
  const JoinServer::QueryResult& warm_result = join_server.Wait(*warm);
  EXPECT_FALSE(cold_result.row.matrix_cache_hit);
  EXPECT_TRUE(warm_result.row.matrix_cache_hit);
  ExpectConcordant(cold_result, standalone, "cold");
  ExpectConcordant(warm_result, standalone, "warm");

  // The warm query re-reads nothing the pool still holds.
  EXPECT_LT(warm_result.row.io.pages_read, cold_result.row.io.pages_read);
}

// ISSUE 6 serving-economics gate: a 50-query mixed-ε stream must hit the
// matrix cache and move strictly fewer modeled pages than 50 standalone
// runs of the same jobs.
TEST(ServerConcordanceTest, FiftyQueryStreamBeatsStandaloneIo) {
  std::vector<JobSpec> jobs;
  const double eps_values[] = {0.005, 0.01, 0.015, 0.02, 0.025};
  for (int i = 0; i < 50; ++i) {
    const bool pair_a = i % 2 == 0;
    jobs.push_back(MakeJob(pair_a ? "road/1000/21" : "uniform/800/7/4",
                           pair_a ? "road/1000/22" : "uniform/800/8/4",
                           eps_values[i % 5] * (pair_a ? 1.0 : 10.0),
                           i % 3 == 0 ? Algorithm::kCc : Algorithm::kSc));
  }

  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  JoinServer join_server(disk.get(), ServerOptions());
  ASSERT_TRUE(join_server.Start().ok());
  for (const JobSpec& job : jobs)
    ASSERT_TRUE(join_server.SubmitBlocking(job).ok());
  join_server.WaitAll();
  join_server.Shutdown();
  ServerReport report = join_server.BuildReport();

  uint64_t standalone_pages_read = 0;
  for (const JobSpec& job : jobs)
    standalone_pages_read += RunStandalone(job).join_io.pages_read;

  // Every job repeats its (pair, eps, norm) key at least 4 times, so the
  // stream is cache-heavy by construction.
  EXPECT_GE(join_server.cache_stats().matrix_hits, 1u);
  EXPECT_EQ(report.queries().size(), 50u);
  EXPECT_LT(report.io_totals().pages_read, standalone_pages_read);
  ExpectExactLedger(report);
}

// Mixed ε/kNN traffic on one server: every query concordant with its
// standalone oracle, the kNN candidate matrix shared across different k
// (its key has neither eps nor k), ε and kNN caches independent, and the
// I/O ledger exact across both query types.
TEST(ServerConcordanceTest, MixedEpsAndKnnStreamSharesArtifacts) {
  const std::string pair_r = "road/1200/31";
  const std::string pair_s = "road/1200/32";
  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(pair_r, pair_s, 0.01, Algorithm::kSc));
  jobs.push_back(MakeKnnJob(pair_r, pair_s, 4));   // builds the kNN matrix
  jobs.push_back(MakeKnnJob(pair_r, pair_s, 8));   // hits it despite new k
  jobs.push_back(MakeJob(pair_r, pair_s, 0.01, Algorithm::kCc));
  jobs.push_back(MakeKnnJob(pair_r, pair_s, 4));   // warm repeat
  jobs.push_back(MakeKnnJob(pair_r, pair_r, 2));   // kNN self join
  jobs.push_back(MakeKnnJob("uniform/700/9/4", "uniform/700/10/4", 8));

  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  JoinServer join_server(disk.get(), ServerOptions());
  ASSERT_TRUE(join_server.Start().ok());
  std::vector<uint64_t> indices;
  for (const JobSpec& job : jobs) {
    auto index = join_server.SubmitBlocking(job);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    indices.push_back(*index);
  }
  join_server.WaitAll();
  join_server.Shutdown();

  for (size_t i = 0; i < jobs.size(); ++i) {
    const JoinServer::QueryResult& served = join_server.Wait(indices[i]);
    ExpectConcordant(served, RunStandalone(jobs[i]),
                     "job " + std::to_string(i) +
                         (jobs[i].k > 0 ? " knn" : " eps"));
    EXPECT_EQ(served.row.k, jobs[i].k) << i;
    if (jobs[i].k > 0) {
      EXPECT_EQ(served.row.engine, "knn") << i;
    }
  }

  // One kNN matrix build per dataset pair — (r,s), (r,r), and the uniform
  // pair — every other kNN query a hit, including the k=8 one. The ε
  // matrices are keyed separately: the two eps jobs share one build (same
  // eps and norm; the engine is not part of the key) untouched by the
  // interleaved kNN traffic.
  const ArtifactCache::Stats stats = join_server.cache_stats();
  EXPECT_EQ(stats.knn_matrix_builds, 3u);
  EXPECT_EQ(stats.knn_matrix_hits, 2u);
  EXPECT_EQ(stats.matrix_builds, 1u);
  EXPECT_EQ(stats.matrix_hits, 1u);

  ServerReport report = join_server.BuildReport();
  EXPECT_EQ(report.queries().size(), jobs.size());
  const std::vector<QueryRow>& rows = report.queries();
  EXPECT_FALSE(rows[1].matrix_cache_hit);  // cold kNN matrix
  EXPECT_TRUE(rows[2].matrix_cache_hit);   // different k, same matrix
  EXPECT_TRUE(rows[4].matrix_cache_hit);   // warm repeat
  ExpectExactLedger(report);
}

TEST(ServerConcordanceTest, RejectsUnservedEngineWithResultRow) {
  auto disk = MakeTestBackend(DiskModel(), kPageBytes);
  JoinServer join_server(disk.get(), ServerOptions());
  ASSERT_TRUE(join_server.Start().ok());

  JobSpec bad = MakeJob("road/100/1", "road/100/2", 0.1);
  bad.engine = Algorithm::kEgo;
  bad.id = "unserved";
  auto rejected = join_server.Submit(bad);
  EXPECT_FALSE(rejected.ok());

  auto good = join_server.SubmitBlocking(
      MakeJob("road/100/1", "road/100/2", 0.1));
  ASSERT_TRUE(good.ok());
  join_server.WaitAll();
  join_server.Shutdown();

  ServerReport report = join_server.BuildReport();
  ASSERT_EQ(report.queries().size(), 2u);
  const QueryRow& row = report.queries()[0];
  EXPECT_EQ(row.id, "unserved");
  EXPECT_EQ(row.status, "rejected");
  EXPECT_FALSE(row.executed);
  EXPECT_EQ(row.io, IoStats());  // nothing was built or read for it
  ExpectExactLedger(report);
}

// Dataset persistence across server processes: with persist_datasets on,
// a second server over the same backend reopens instead of regenerating,
// and still serves byte-identical results.
TEST(ServerConcordanceTest, PersistedDatasetsServeIdenticalResults) {
  const JobSpec job = MakeJob("clusters/600/2/4", "clusters/600/3/4", 0.9);
  auto disk = MakeTestBackend(DiskModel(), kPageBytes);

  JoinServer::Options options = ServerOptions();
  options.persist_datasets = true;

  std::vector<std::pair<uint64_t, uint64_t>> first_pairs;
  OpCounters first_ops;
  {
    JoinServer first(disk.get(), options);
    ASSERT_TRUE(first.Start().ok());
    auto index = first.SubmitBlocking(job);
    ASSERT_TRUE(index.ok());
    first.WaitAll();
    const JoinServer::QueryResult& result = first.Wait(*index);
    ASSERT_EQ(result.row.status, "ok") << result.row.error;
    EXPECT_EQ(first.cache_stats().dataset_builds, 2u);
    first_pairs = result.pairs;
    first_ops = result.row.ops;
  }

  JoinServer second(disk.get(), options);
  ASSERT_TRUE(second.Start().ok());
  auto index = second.SubmitBlocking(job);
  ASSERT_TRUE(index.ok());
  second.WaitAll();
  const JoinServer::QueryResult& result = second.Wait(*index);
  ASSERT_EQ(result.row.status, "ok") << result.row.error;
  EXPECT_EQ(second.cache_stats().dataset_opens, 2u);
  EXPECT_EQ(second.cache_stats().dataset_builds, 0u);
  EXPECT_EQ(result.pairs, first_pairs);
  EXPECT_EQ(result.row.ops, first_ops);
}

}  // namespace
}  // namespace server
}  // namespace pmjoin
