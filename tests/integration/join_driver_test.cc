#include "core/join_driver.h"

#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/joiners.h"
#include "core/plane_sweep.h"
#include "core/reference_join.h"
#include "data/generators.h"
#include "io/simulated_disk.h"
#include "seq/sequence_store.h"
#include "test_util.h"

namespace pmjoin {
namespace {

const Algorithm kSequenceAlgorithms[] = {
    Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kRandomSc,
    Algorithm::kSc,  Algorithm::kCc,    Algorithm::kEgo,
    Algorithm::kBfrj,
};

const Algorithm kVectorAlgorithms[] = {
    Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kRandomSc,
    Algorithm::kSc,  Algorithm::kCc,    Algorithm::kEgo,
    Algorithm::kBfrj,
};

JoinOptions BaseOptions(Algorithm algorithm, uint32_t buffer) {
  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_pages = buffer;
  options.page_size_bytes = 64;
  return options;
}

class VectorDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  VectorDriverTest() {
    r_raw_ = GenRoadNetwork(300, 3);
    s_raw_ = GenRoadNetwork(250, 4);
    VectorDataset::Options ds_options;
    ds_options.page_size_bytes = 64;
    r_.emplace(VectorDataset::Build(&disk_, "r", r_raw_, ds_options).value());
    s_.emplace(VectorDataset::Build(&disk_, "s", s_raw_, ds_options).value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  VectorData r_raw_, s_raw_;
  std::optional<VectorDataset> r_, s_;
};

TEST_P(VectorDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 0.05;
  auto report =
      driver.RunVector(*r_, *s_, eps, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  CollectingSink ref;
  ReferenceVectorJoin(r_raw_, s_raw_, eps, Norm::kL2, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
  EXPECT_EQ(report->result_pairs, sink.pairs().size());
  EXPECT_GT(report->io.pages_read, 0u);
  EXPECT_GT(report->TotalSeconds(), 0.0);
}

TEST_P(VectorDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 0.04;
  auto report =
      driver.RunVector(*r_, *r_, eps, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  CollectingSink ref;
  ReferenceVectorJoin(r_raw_, r_raw_, eps, Norm::kL2, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, VectorDriverTest,
                         ::testing::ValuesIn(kVectorAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class TimeSeriesDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  TimeSeriesDriverTest() {
    x_ = GenRandomWalk(400, 17);
    y_ = GenRandomWalk(300, 18);
    xs_.emplace(TimeSeriesStore::Build(&disk_, "x", x_, 4, 16,
                                       60 * sizeof(float))
                    .value());
    ys_.emplace(TimeSeriesStore::Build(&disk_, "y", y_, 4, 16,
                                       60 * sizeof(float))
                    .value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  std::vector<float> x_, y_;
  std::optional<TimeSeriesStore> xs_, ys_;
};

TEST_P(TimeSeriesDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 2.0;
  auto report = driver.RunTimeSeries(*xs_, *ys_, eps,
                                     BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x_, y_, 16, eps, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST_P(TimeSeriesDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 1.0;
  auto report = driver.RunTimeSeries(*xs_, *xs_, eps,
                                     BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x_, x_, 16, eps, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TimeSeriesDriverTest,
                         ::testing::ValuesIn(kSequenceAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class StringDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  StringDriverTest() {
    GenDnaPair(500, 400, 23, &a_, &b_, 0.5, 0.01);
    // Tiny test sequences land in single (different) composition regimes,
    // so plant explicit homologous segments to make the cross join
    // non-empty: copy two chunks of a into b with one mutation each.
    Rng rng(99);
    for (size_t chunk = 0; chunk < 2; ++chunk) {
      const size_t src = 50 + chunk * 180;
      const size_t dst = 80 + chunk * 150;
      for (size_t i = 0; i < 60; ++i) b_[dst + i] = a_[src + i];
      b_[dst + rng.Uniform(60)] = static_cast<uint8_t>(rng.Uniform(4));
    }
    as_.emplace(
        StringSequenceStore::Build(&disk_, "a", a_, 4, 12, 64).value());
    bs_.emplace(
        StringSequenceStore::Build(&disk_, "b", b_, 4, 12, 64).value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  std::vector<uint8_t> a_, b_;
  std::optional<StringSequenceStore> as_, bs_;
};

TEST_P(StringDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const uint32_t k = 2;
  auto report =
      driver.RunString(*as_, *bs_, k, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceStringJoin(a_, b_, 12, k, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST_P(StringDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const uint32_t k = 1;
  auto report =
      driver.RunString(*as_, *as_, k, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceStringJoin(a_, a_, 12, k, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StringDriverTest,
                         ::testing::ValuesIn(kSequenceAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });


// The driver builds every matrix hierarchically (Fig. 1); these check
// that build against the flat leaf sweep, the definition, over the page
// MBRs the driver joins.

/// An STR tree over `page_mbrs` with a small fanout, so that the
/// hierarchical build descends through inner nodes.
RStarTree PageTree(const std::vector<Mbr>& page_mbrs) {
  std::vector<RStarTree::Entry> leaves;
  for (uint32_t p = 0; p < page_mbrs.size(); ++p)
    leaves.push_back(RStarTree::Entry{page_mbrs[p], p});
  return RStarTree::BulkLoadStr(page_mbrs[0].dims(), std::move(leaves),
                                RStarTree::Options{8});
}

void ExpectMatrixBuildersAgree(const RStarTree& r_tree,
                               const RStarTree& s_tree,
                               const std::vector<Mbr>& r_pages,
                               const std::vector<Mbr>& s_pages,
                               double threshold, Norm norm) {
  const PredictionMatrix flat =
      BuildPredictionMatrixFlat(r_pages, s_pages, threshold, norm, nullptr);
  const PredictionMatrix hier = BuildPredictionMatrixHierarchical(
      r_tree, s_tree, static_cast<uint32_t>(r_pages.size()),
      static_cast<uint32_t>(s_pages.size()), threshold, norm,
      JoinOptions().filter_iterations, nullptr);
  EXPECT_GT(flat.MarkedCount(), 0u);
  EXPECT_LT(flat.MarkedCount(), uint64_t{flat.rows()} * flat.cols());
  EXPECT_EQ(hier.AllEntries(), flat.AllEntries());
}

TEST(JoinDriverTest, SequenceHierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  std::vector<uint8_t> a = GenDnaSequence(2500, 91, 0.5, 0.01, 0.05);
  auto store = StringSequenceStore::Build(&disk, "a", a, 4, 12, 64);
  ASSERT_TRUE(store.ok());
  const SequencePairJoiner<StringKind> joiner(&*store, &*store, 1, true);
  const RStarTree tree = PageTree(store->page_mbrs());
  ExpectMatrixBuildersAgree(tree, tree, store->page_mbrs(),
                            store->page_mbrs(), joiner.MatrixThreshold(),
                            StringKind::kNorm);
}

TEST(JoinDriverTest, TimeSeriesHierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  const std::vector<float> x_vals = GenRandomWalk(600, 93);
  auto store = TimeSeriesStore::Build(&disk, "x", x_vals, 4, 16,
                                      60 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequencePairJoiner<SeriesKind> joiner(&*store, &*store, 1.0, true);
  const RStarTree tree = PageTree(store->page_mbrs());
  ExpectMatrixBuildersAgree(tree, tree, store->page_mbrs(),
                            store->page_mbrs(), joiner.MatrixThreshold(),
                            SeriesKind::kNorm);
}

// A store destroyed and rebuilt at the same address must be joined over
// its own page tree: one driver that joined the old store must give the
// rebuilt one the answer a fresh driver gives.
struct SelfJoinResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  uint64_t marked_entries = 0;
};

template <typename Kind, typename Run>
void ExpectRebuiltStoreJoinsItsOwnPages(
    const std::vector<typename Kind::Symbol>& first,
    const std::vector<typename Kind::Symbol>& second, uint32_t feature_dims,
    uint32_t window_len, const Run& run) {
  SimulatedDisk disk;
  JoinDriver driver(&disk);
  std::optional<SequenceStore<Kind>> store;
  const auto self_join = [&](JoinDriver* d) {
    CollectingSink sink;
    const Result<JoinReport> report = run(d, *store, &sink);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return SelfJoinResult{sink.Sorted(),
                          report.ok() ? report->marked_entries : 0};
  };
  store.emplace(SequenceStore<Kind>::Build(&disk, "first", first,
                                           feature_dims, window_len, 1024)
                    .value());
  self_join(&driver);
  store.reset();
  store.emplace(SequenceStore<Kind>::Build(&disk, "second", second,
                                           feature_dims, window_len, 1024)
                    .value());
  JoinDriver fresh(&disk);
  const SelfJoinResult expected = self_join(&fresh);
  const SelfJoinResult reused = self_join(&driver);
  EXPECT_FALSE(expected.pairs.empty());
  EXPECT_EQ(reused.marked_entries, expected.marked_entries);
  EXPECT_EQ(reused.pairs.size(), expected.pairs.size());
  EXPECT_EQ(reused.pairs, expected.pairs);
}

TEST(JoinDriverTest, StringStoreRebuiltAtSameAddressJoinsItsOwnPages) {
  std::vector<uint8_t> a, b;
  GenDnaPair(3000, 9000, 7, &a, &b, 0.30, 0.004, 0.15);
  JoinOptions options = BaseOptions(Algorithm::kSc, 12);
  options.page_size_bytes = 1024;
  ExpectRebuiltStoreJoinsItsOwnPages<StringKind>(
      a, b, 4, 100,
      [&](JoinDriver* d, const StringSequenceStore& store, PairSink* sink) {
        return d->RunString(store, store, 3, options, sink);
      });
}

TEST(JoinDriverTest, SeriesStoreRebuiltAtSameAddressJoinsItsOwnPages) {
  JoinOptions options = BaseOptions(Algorithm::kSc, 12);
  options.page_size_bytes = 1024;
  ExpectRebuiltStoreJoinsItsOwnPages<SeriesKind>(
      GenRandomWalk(1000, 95), GenRandomWalk(3000, 96), 4, 16,
      [&](JoinDriver* d, const TimeSeriesStore& store, PairSink* sink) {
        return d->RunTimeSeries(store, store, 0.1, options, sink);
      });
}

TEST(JoinDriverTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmName(Algorithm::kNlj), "NLJ");
  EXPECT_EQ(AlgorithmName(Algorithm::kPmNlj), "pm-NLJ");
  EXPECT_EQ(AlgorithmName(Algorithm::kRandomSc), "rand-SC");
  EXPECT_EQ(AlgorithmName(Algorithm::kSc), "SC");
  EXPECT_EQ(AlgorithmName(Algorithm::kCc), "CC");
  EXPECT_EQ(AlgorithmName(Algorithm::kEgo), "EGO");
  EXPECT_EQ(AlgorithmName(Algorithm::kBfrj), "BFRJ");
}

TEST(JoinDriverTest, ScBeatsNljOnModeledCost) {
  // The headline claim at test scale: SC's modeled total is below NLJ's
  // when the data is much larger than the buffer.
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(2000, 31);
  const VectorData s_raw = GenRoadNetwork(1500, 32);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto r = VectorDataset::Build(&disk, "r", r_raw, ds_options);
  auto s = VectorDataset::Build(&disk, "s", s_raw, ds_options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  JoinDriver driver(&disk);
  CountingSink nlj_sink, sc_sink;
  auto nlj = driver.RunVector(*r, *s, 0.01,
                              BaseOptions(Algorithm::kNlj, 16), &nlj_sink);
  auto sc = driver.RunVector(*r, *s, 0.01,
                             BaseOptions(Algorithm::kSc, 16), &sc_sink);
  ASSERT_TRUE(nlj.ok());
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(nlj_sink.count(), sc_sink.count());
  EXPECT_LT(sc->TotalSeconds(), nlj->TotalSeconds());
  EXPECT_LT(sc->io.pages_read, nlj->io.pages_read);
}

TEST(JoinDriverTest, HierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(500, 41);
  const VectorData s_raw = GenRoadNetwork(400, 42);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto r = VectorDataset::Build(&disk, "r", r_raw, ds_options);
  auto s = VectorDataset::Build(&disk, "s", s_raw, ds_options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  ExpectMatrixBuildersAgree(r->tree(), s->tree(), r->page_mbrs(),
                            s->page_mbrs(), 0.05, Norm::kL2);
}

TEST(JoinDriverTest, ReportBreakdownConsistent) {
  SimulatedDisk disk;
  const VectorData raw = GenRoadNetwork(300, 51);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "r", raw, ds_options);
  ASSERT_TRUE(ds.ok());

  JoinDriver driver(&disk);
  CountingSink sink;
  auto report = driver.RunVector(*ds, *ds, 0.05,
                                 BaseOptions(Algorithm::kSc, 10), &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->TotalSeconds(),
              report->io_seconds + report->cpu_join_seconds +
                  report->preprocess_seconds,
              1e-12);
  EXPECT_GT(report->preprocess_seconds, 0.0);  // SC clustering happened.
  EXPECT_GT(report->marked_entries, 0u);
  EXPECT_GT(report->num_clusters, 0u);
  EXPECT_GT(report->matrix_selectivity, 0.0);
}

TEST(JoinDriverTest, NljHasNoPreprocessCost) {
  SimulatedDisk disk;
  const VectorData raw = GenRoadNetwork(200, 61);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "r", raw, ds_options);
  ASSERT_TRUE(ds.ok());
  JoinDriver driver(&disk);
  CountingSink sink;
  auto report = driver.RunVector(*ds, *ds, 0.05,
                                 BaseOptions(Algorithm::kNlj, 10), &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->preprocess_seconds, 0.0);
  EXPECT_EQ(report->ops.mbr_tests, 0u);  // Oracle build is uncharged.
}

TEST(JoinDriverTest, CcIoAtMostScIoOnSequenceData) {
  // Table 2's qualitative claim: CC (the cost-based lower bound) is no
  // worse than SC on I/O for sequence self joins.
  SimulatedDisk disk;
  auto store = StringSequenceStore::Build(&disk, "dna",
                                         GenDnaSequence(4000, /*seed=*/71),
                                         /*alphabet_size=*/4,
                                         /*window_len=*/12,
                                         /*page_size_bytes=*/64);
  ASSERT_TRUE(store.ok());

  JoinDriver driver(&disk);
  CountingSink sc_sink, cc_sink;
  auto sc = driver.RunString(*store, *store, 1,
                             BaseOptions(Algorithm::kSc, 16), &sc_sink);
  auto cc = driver.RunString(*store, *store, 1,
                             BaseOptions(Algorithm::kCc, 16), &cc_sink);
  ASSERT_TRUE(sc.ok());
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(sc_sink.count(), cc_sink.count());
  // Allow slack: CC is a heuristic lower bound, not a guarantee, and at
  // this tiny scale its rectangle growth can lose to SC's column sweep.
  EXPECT_LE(cc->io_seconds, sc->io_seconds * 2.5);
}

}  // namespace
}  // namespace pmjoin
