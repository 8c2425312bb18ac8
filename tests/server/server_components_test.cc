// Unit tests for the server building blocks: the job-line parser, the
// dataset-spec grammar, the admission policy, the bounded query queue,
// and the artifact cache.

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/admission.h"
#include "server/artifact_cache.h"
#include "server/job.h"
#include "test_util.h"

namespace pmjoin {
namespace server {
namespace {

using testing_util::MakeTestBackend;

// ---------------------------------------------------------------------------
// DatasetSpec grammar.

TEST(DatasetSpecTest, ParsesRoad) {
  auto spec = DatasetSpec::Parse("road/2000/7");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, DatasetSpec::Kind::kRoad);
  EXPECT_EQ(spec->n, 2000u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->dims, 2u);
  EXPECT_EQ(spec->Canonical(), "road-2000-7");
}

TEST(DatasetSpecTest, ParsesDimsSegment) {
  auto spec = DatasetSpec::Parse("uniform/1000/3/8");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->kind, DatasetSpec::Kind::kUniform);
  EXPECT_EQ(spec->dims, 8u);
  EXPECT_EQ(spec->Canonical(), "uniform-1000-3-d8");

  auto defaulted = DatasetSpec::Parse("clusters/500/1");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->dims, 8u);
}

TEST(DatasetSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(DatasetSpec::Parse("").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road/2000").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road/2000/7/2").ok());  // road is 2-d
  EXPECT_FALSE(DatasetSpec::Parse("warehouse/10/1").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road/0/1").ok());
  // n × dims past DatasetSpec::kMaxCoordinates (2^28): Generate would
  // otherwise throw (2^64 floats) or try to allocate 16 TB. 2^27 road
  // points are exactly at the limit.
  EXPECT_TRUE(DatasetSpec::Parse("road/134217728/1").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road/134217729/1").ok());
  const auto huge = DatasetSpec::Parse("road/18446744073709551615/1");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("268435456 coordinates"),
            std::string::npos);
  EXPECT_FALSE(DatasetSpec::Parse("clusters/4000000000/1/1024").ok());
  EXPECT_FALSE(DatasetSpec::Parse("road/abc/1").ok());
  EXPECT_FALSE(DatasetSpec::Parse("uniform/10/1/0").ok());
  EXPECT_FALSE(DatasetSpec::Parse("uniform/10/1/9999").ok());
}

TEST(DatasetSpecTest, GenerateIsDeterministic) {
  const DatasetSpec spec = *DatasetSpec::Parse("uniform/100/5/4");
  const VectorData a = spec.Generate();
  const VectorData b = spec.Generate();
  EXPECT_EQ(a.dims, 4u);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.values, b.values);
}

// ---------------------------------------------------------------------------
// Job lines.

TEST(JobLineTest, ParsesFullSubmitLine) {
  auto line = ParseJobLine(
      "{\"cmd\": \"submit\", \"id\": \"warm\", \"r\": \"road/2000/7\", "
      "\"s\": \"road/2000/8\", \"eps\": 0.01, \"engine\": \"cc\", "
      "\"buffer_pages\": 32, \"threads\": 2}");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_TRUE(line->has_value());
  const JobSpec& job = **line;
  EXPECT_EQ(job.id, "warm");
  EXPECT_EQ(job.r, "road/2000/7");
  EXPECT_EQ(job.s, "road/2000/8");
  EXPECT_DOUBLE_EQ(job.eps, 0.01);
  EXPECT_EQ(job.engine, Algorithm::kCc);
  EXPECT_EQ(job.buffer_pages, 32u);
  EXPECT_EQ(job.num_threads, 2u);
}

TEST(JobLineTest, DefaultsAndComments) {
  auto line =
      ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"eps\": 1}");
  ASSERT_TRUE(line.ok());
  ASSERT_TRUE(line->has_value());
  EXPECT_EQ((*line)->engine, Algorithm::kSc);  // default engine
  EXPECT_EQ((*line)->buffer_pages, 0u);        // 0 = server default

  EXPECT_FALSE(ParseJobLine("")->has_value());
  EXPECT_FALSE(ParseJobLine("   ")->has_value());
  EXPECT_FALSE(ParseJobLine("# a comment")->has_value());
}

TEST(JobLineTest, RejectsMalformedLines) {
  // Missing required keys.
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"eps\": 1}").ok());
  EXPECT_FALSE(
      ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\"}").ok());
  // eps must be positive.
  EXPECT_FALSE(
      ParseJobLine(
          "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"eps\": 0}")
          .ok());
  // Unknown command / key / engine.
  EXPECT_FALSE(ParseJobLine("{\"cmd\": \"drop\", \"r\": \"road/10/1\", "
                            "\"s\": \"road/10/2\", \"eps\": 1}")
                   .ok());
  // Unknown keys are rejected *by name* — a typo must surface as itself,
  // not as a missing-eps or wrong-shape complaint. "shards" and
  // "io_threads" are removed keys: old job lines that still set them must
  // fail, not silently run.
  for (const std::string key : {"frobnicate", "shards", "io_threads"}) {
    auto unknown =
        ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", "
                     "\"eps\": 1, \"" + key + "\": true}");
    ASSERT_FALSE(unknown.ok()) << key;
    EXPECT_NE(unknown.status().message().find("unknown job key"),
              std::string::npos)
        << unknown.status().ToString();
    EXPECT_NE(unknown.status().message().find(key), std::string::npos)
        << unknown.status().ToString();
  }
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", "
                            "\"eps\": 1, \"engine\": \"ego\"}")
                   .ok());
  // Not flat JSON.
  EXPECT_FALSE(ParseJobLine("{\"r\": {\"gen\": \"road\"}, "
                            "\"s\": \"road/10/2\", \"eps\": 1}")
                   .ok());
  // Duplicate key.
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"r\": \"road/10/2\", "
                            "\"s\": \"road/10/2\", \"eps\": 1}")
                   .ok());
  // Trailing garbage.
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", "
                            "\"eps\": 1} extra")
                   .ok());
}

TEST(JobLineTest, ParsesKnnJobs) {
  auto line = ParseJobLine(
      "{\"r\": \"road/2000/7\", \"s\": \"road/2000/8\", \"k\": 8}");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_TRUE(line->has_value());
  EXPECT_EQ((*line)->k, 8u);
  EXPECT_DOUBLE_EQ((*line)->eps, 0.0);

  // eps and k are mutually exclusive — two predicates, one query.
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", "
                            "\"eps\": 0.5, \"k\": 4}")
                   .ok());
  // engine only applies to eps-joins.
  EXPECT_FALSE(ParseJobLine("{\"r\": \"road/10/1\", \"s\": \"road/10/2\", "
                            "\"k\": 4, \"engine\": \"sc\"}")
                   .ok());
  // k must be a positive small integer.
  EXPECT_FALSE(
      ParseJobLine(
          "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"k\": 0}")
          .ok());
  EXPECT_FALSE(
      ParseJobLine(
          "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"k\": 2.5}")
          .ok());
  EXPECT_FALSE(
      ParseJobLine(
          "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"k\": -3}")
          .ok());
}

TEST(JobStreamTest, ParsesStreamAndNamesBadLine) {
  std::istringstream good(
      "# warmup\n"
      "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"eps\": 0.5}\n"
      "\n"
      "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"eps\": 0.25}\n");
  auto jobs = ParseJobStream(good);
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  EXPECT_EQ(jobs->size(), 2u);

  std::istringstream bad(
      "{\"r\": \"road/10/1\", \"s\": \"road/10/2\", \"eps\": 0.5}\n"
      "{\"r\": \"road/10/1\"}\n");
  auto failed = ParseJobStream(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 2"), std::string::npos)
      << failed.status().ToString();
}

TEST(EngineTokenTest, RoundTripsServedFamily) {
  for (const char* token : {"nlj", "pm-nlj", "rand-sc", "sc", "cc"}) {
    auto engine = ParseEngine(token);
    ASSERT_TRUE(engine.ok()) << token;
    EXPECT_EQ(EngineToken(*engine), token);
  }
  EXPECT_FALSE(ParseEngine("ego").ok());
  EXPECT_FALSE(ParseEngine("bfrj").ok());
  EXPECT_FALSE(ParseEngine("").ok());
}

// ---------------------------------------------------------------------------
// Admission.

JobSpec MakeJob(const std::string& r, const std::string& s, double eps) {
  JobSpec job;
  job.r = r;
  job.s = s;
  job.eps = eps;
  return job;
}

TEST(AdmissionTest, ResolvesDefaultsInPlace) {
  AdmissionController admission(
      AdmissionController::Options{128, 48, 2, 8});
  JobSpec job = MakeJob("road/100/1", "road/100/2", 0.1);
  ASSERT_TRUE(admission.Admit(&job).ok());
  EXPECT_EQ(job.buffer_pages, 48u);
  EXPECT_EQ(job.num_threads, 2u);

  JobSpec pinned = MakeJob("road/100/1", "road/100/2", 0.1);
  pinned.buffer_pages = 16;
  pinned.num_threads = 4;
  ASSERT_TRUE(admission.Admit(&pinned).ok());
  EXPECT_EQ(pinned.buffer_pages, 16u);
  EXPECT_EQ(pinned.num_threads, 4u);
}

TEST(AdmissionTest, RejectsPolicyViolations) {
  AdmissionController admission(
      AdmissionController::Options{128, 48, 2, 8});

  JobSpec bad_spec = MakeJob("road/100/1", "nonsense", 0.1);
  EXPECT_FALSE(admission.Admit(&bad_spec).ok());

  JobSpec dims = MakeJob("road/100/1", "uniform/100/1/8", 0.1);
  EXPECT_FALSE(admission.Admit(&dims).ok());

  JobSpec eps = MakeJob("road/100/1", "road/100/2", 0.0);
  EXPECT_FALSE(admission.Admit(&eps).ok());

  JobSpec engine = MakeJob("road/100/1", "road/100/2", 0.1);
  engine.engine = Algorithm::kEgo;
  EXPECT_FALSE(admission.Admit(&engine).ok());

  JobSpec buffer = MakeJob("road/100/1", "road/100/2", 0.1);
  buffer.buffer_pages = 129;  // > pool_pages
  EXPECT_FALSE(admission.Admit(&buffer).ok());

  JobSpec threads = MakeJob("road/100/1", "road/100/2", 0.1);
  threads.num_threads = 9;  // > max_threads
  EXPECT_FALSE(admission.Admit(&threads).ok());
}

TEST(AdmissionTest, AdmitsKnnJobsAndRejectsMixedPredicates) {
  AdmissionController admission(
      AdmissionController::Options{128, 48, 2, 8});

  JobSpec knn = MakeJob("road/100/1", "road/100/2", 0.0);
  knn.k = 8;
  ASSERT_TRUE(admission.Admit(&knn).ok());
  EXPECT_EQ(knn.buffer_pages, 48u);  // defaults resolve for kNN jobs too

  // The engine field is inert for kNN jobs: even a value the eps-join
  // family would reject passes (programmatic submissions only — the
  // parser refuses the engine key on kNN job lines outright).
  JobSpec engine = MakeJob("road/100/1", "road/100/2", 0.0);
  engine.k = 4;
  engine.engine = Algorithm::kEgo;
  EXPECT_TRUE(admission.Admit(&engine).ok());

  // A nonzero eps alongside k signals a confused submission.
  JobSpec mixed = MakeJob("road/100/1", "road/100/2", 0.5);
  mixed.k = 4;
  EXPECT_FALSE(admission.Admit(&mixed).ok());

  // Pool and thread caps apply to kNN jobs unchanged.
  JobSpec buffer = MakeJob("road/100/1", "road/100/2", 0.0);
  buffer.k = 4;
  buffer.buffer_pages = 129;
  EXPECT_FALSE(admission.Admit(&buffer).ok());
}

// ---------------------------------------------------------------------------
// QueryQueue.

QueuedQuery Queued(uint64_t index) {
  QueuedQuery q;
  q.index = index;
  return q;
}

TEST(QueryQueueTest, BoundedTryPushAndDrain) {
  QueryQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  ASSERT_TRUE(queue.TryPush(Queued(0)).ok());
  ASSERT_TRUE(queue.TryPush(Queued(1)).ok());
  const Status full = queue.TryPush(Queued(2));
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.IsBufferFull());
  EXPECT_EQ(queue.Depth(), 2u);
  EXPECT_EQ(queue.MaxDepthSeen(), 2u);

  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->index, 0u);  // FIFO
  ASSERT_TRUE(queue.TryPush(Queued(2)).ok());

  queue.Close();
  EXPECT_FALSE(queue.TryPush(Queued(3)).ok());
  // Close drains before signalling end-of-stream.
  EXPECT_EQ(queue.Pop()->index, 1u);
  EXPECT_EQ(queue.Pop()->index, 2u);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(QueryQueueTest, PushBlockingWaitsForSpace) {
  QueryQueue queue(1);
  ASSERT_TRUE(queue.TryPush(Queued(0)).ok());

  Status pushed = Status::OK();
  std::thread producer(
      [&queue, &pushed] { pushed = queue.PushBlocking(Queued(1)); });
  // The producer can only finish after the consumer makes room.
  EXPECT_EQ(queue.Pop()->index, 0u);
  producer.join();
  EXPECT_TRUE(pushed.ok());
  EXPECT_EQ(queue.Pop()->index, 1u);

  queue.Close();
  EXPECT_FALSE(queue.PushBlocking(Queued(2)).ok());
}

TEST(QueryQueueTest, ManySubmittersRacingShutdown) {
  // Backpressure under contention racing Close: many producers hammer a
  // tiny queue with PushBlocking while the consumer pops a few entries
  // and then shuts the queue down under the producers. Every push must
  // resolve exactly once — OK (the entry is popped exactly once) or
  // "queue closed" — with no deadlock, no lost entry, no duplicate, and
  // the bound never exceeded.
  constexpr size_t kCapacity = 4;
  constexpr size_t kProducers = 16;
  constexpr size_t kPerProducer = 8;
  QueryQueue queue(kCapacity);

  std::atomic<uint64_t> ok_pushes{0};
  std::atomic<uint64_t> closed_pushes{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &ok_pushes, &closed_pushes, p] {
      for (size_t j = 0; j < kPerProducer; ++j) {
        const Status st = queue.PushBlocking(Queued(p * kPerProducer + j));
        if (st.ok()) {
          ok_pushes.fetch_add(1);
        } else {
          // The only failure PushBlocking may report is a closed queue —
          // backpressure itself must block, never bounce.
          EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
          closed_pushes.fetch_add(1);
        }
      }
    });
  }

  // Serve a prefix of the traffic, then close mid-flight: at this point
  // most producers are parked in PushBlocking on the full queue.
  std::vector<uint64_t> popped;
  for (size_t i = 0; i < 20; ++i) {
    auto entry = queue.Pop();
    ASSERT_TRUE(entry.has_value());
    popped.push_back(entry->index);
  }
  queue.Close();
  for (std::thread& t : producers) t.join();

  // Close drains before end-of-stream: everything pushed OK but not yet
  // served is still in the queue.
  while (auto entry = queue.Pop()) popped.push_back(entry->index);
  EXPECT_FALSE(queue.Pop().has_value());

  EXPECT_EQ(ok_pushes.load() + closed_pushes.load(),
            kProducers * kPerProducer);
  EXPECT_GT(closed_pushes.load(), 0u);  // Close really raced submitters.
  EXPECT_EQ(popped.size(), ok_pushes.load());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(std::adjacent_find(popped.begin(), popped.end()), popped.end());
  EXPECT_LE(queue.MaxDepthSeen(), kCapacity);
}

// ---------------------------------------------------------------------------
// ArtifactCache.

TEST(ArtifactCacheTest, DatasetPointersAreStableAndShared) {
  auto disk = MakeTestBackend(DiskModel(), 1024);
  ArtifactCache cache(disk.get(), ArtifactCache::Options{1024, false, true, 5});

  const DatasetSpec spec = *DatasetSpec::Parse("road/500/3");
  auto first = cache.GetDataset(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetDataset(*DatasetSpec::Parse("road/500/3"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same object: self-joins need identity
  EXPECT_EQ(cache.stats().dataset_builds, 1u);
  EXPECT_EQ(cache.stats().dataset_hits, 1u);

  auto other = cache.GetDataset(*DatasetSpec::Parse("road/500/4"));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(*first, *other);
  EXPECT_EQ(cache.stats().dataset_builds, 2u);
}

TEST(ArtifactCacheTest, MatrixMemoizationKeysOnEpsAndNorm) {
  auto disk = MakeTestBackend(DiskModel(), 1024);
  ArtifactCache cache(disk.get(), ArtifactCache::Options{1024, false, true, 5});
  const DatasetSpec r = *DatasetSpec::Parse("road/500/3");
  const DatasetSpec s = *DatasetSpec::Parse("road/500/4");

  bool hit = true;
  auto cold = cache.GetMatrix(r, s, 0.01, Norm::kL2, &hit);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(hit);

  auto warm = cache.GetMatrix(r, s, 0.01, Norm::kL2, &hit);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*cold, *warm);  // memoized object

  // Different eps and different norm are different artifacts.
  ASSERT_TRUE(cache.GetMatrix(r, s, 0.02, Norm::kL2, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetMatrix(r, s, 0.01, Norm::kL1, &hit).ok());
  EXPECT_FALSE(hit);

  EXPECT_EQ(cache.stats().matrix_builds, 3u);
  EXPECT_EQ(cache.stats().matrix_hits, 1u);
}

TEST(ArtifactCacheTest, KnnMatrixIsSharedAcrossEveryK) {
  auto disk = MakeTestBackend(DiskModel(), 1024);
  ArtifactCache cache(disk.get(), ArtifactCache::Options{1024, false, true, 5});
  const DatasetSpec r = *DatasetSpec::Parse("road/500/3");
  const DatasetSpec s = *DatasetSpec::Parse("road/500/4");

  bool hit = true;
  auto cold = cache.GetKnnMatrix(r, s, Norm::kL2, &hit);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(hit);
  ASSERT_TRUE((*cold)->matrix.ValidateInvariants().ok());

  // The key has no eps and no k: any later kNN query on the pair hits.
  auto warm = cache.GetKnnMatrix(r, s, Norm::kL2, &hit);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*cold, *warm);

  // A different norm is a different comparison space, hence a different
  // artifact; eps-join matrices live in their own namespace entirely.
  ASSERT_TRUE(cache.GetKnnMatrix(r, s, Norm::kL1, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.GetMatrix(r, s, 0.01, Norm::kL2, &hit).ok());
  EXPECT_FALSE(hit);

  EXPECT_EQ(cache.stats().knn_matrix_builds, 2u);
  EXPECT_EQ(cache.stats().knn_matrix_hits, 1u);
  EXPECT_EQ(cache.stats().matrix_builds, 1u);
  EXPECT_EQ(cache.stats().matrix_hits, 0u);
}

TEST(ArtifactCacheTest, PersistedDatasetReopensInFreshCache) {
  auto disk = MakeTestBackend(DiskModel(), 1024);
  const DatasetSpec spec = *DatasetSpec::Parse("uniform/200/9/4");

  ArtifactCache::Options options{1024, /*persist_datasets=*/true, true, 5};
  {
    ArtifactCache cache(disk.get(), options);
    ASSERT_TRUE(cache.GetDataset(spec).ok());
    EXPECT_EQ(cache.stats().dataset_builds, 1u);
  }
  // A fresh cache over the same backend finds the persisted copy.
  ArtifactCache reopened(disk.get(), options);
  auto dataset = reopened.GetDataset(spec);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(reopened.stats().dataset_opens, 1u);
  EXPECT_EQ(reopened.stats().dataset_builds, 0u);
  EXPECT_EQ((*dataset)->num_records(), 200u);
}

}  // namespace
}  // namespace server
}  // namespace pmjoin
