// Workloads served by JoinDriver on the simulated backend: the Fig. 10
// road join (road_sc) and the Fig. 11 DNA self subsequence join (dna_sc).
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common/cost_model.h"
#include "common/rng.h"
#include "core/cost_clustering.h"
#include "core/executor.h"
#include "core/plane_sweep.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "index/rstar_tree.h"
#include "io/simulated_disk.h"
#include "seq/edit_distance.h"
#include "seq/sequence_store.h"
#include "workloads.h"

namespace perfbench {

using pmjoin::Algorithm;
using pmjoin::BufferPool;
using pmjoin::Cluster;
using pmjoin::IoStats;
using pmjoin::JoinDriver;
using pmjoin::JoinInput;
using pmjoin::JoinOptions;
using pmjoin::JoinReport;
using pmjoin::Norm;
using pmjoin::OpCounters;
using pmjoin::PageId;
using pmjoin::PredictionMatrix;
using pmjoin::Result;
using pmjoin::SimulatedDisk;
using pmjoin::Status;

pmjoin::Status ReplayClustered(const ClusteredReplay& query, SpanLog* log,
                               pmjoin::PairSink* sink, OpCounters* ops,
                               LayerCounts* counts) {
  const uint64_t cluster_ops_before = ops->cluster_ops;
  std::vector<Cluster> clusters;
  {
    SpanScope span(log, "core.clustering");
    if (query.algorithm == Algorithm::kCc) {
      pmjoin::Rng rng(query.seed);
      clusters = pmjoin::CostClustering(
          *query.matrix, query.buffer_pages, query.pool->disk()->model(),
          JoinOptions().cc_histogram_resolution, &rng, ops);
    } else {
      clusters =
          pmjoin::SquareClustering(*query.matrix, query.buffer_pages, ops);
    }
  }
  counts->clusters = clusters.size();
  counts->clustering_ops = ops->cluster_ops - cluster_ops_before;
  std::vector<uint32_t> order;
  {
    SpanScope span(log, "core.schedule");
    order = pmjoin::ScheduleClusters(clusters, *query.input, ops);
  }
  SpanScope execute(log, "core.execute");
  for (const uint32_t index : order) {
    std::vector<PageId> pages;
    {
      SpanScope span(log, "core.page_set");
      pages = pmjoin::ClusterPageSet(clusters[index], *query.input);
    }
    {
      SpanScope span(log, "io.pin");
      const Status st = query.pool->PinBatch(pages);
      if (!st.ok()) return st;
    }
    {
      SpanScope span(log, query.join_span);
      pmjoin::JoinEntries(*query.input, clusters[index].entries, sink, ops);
    }
    {
      SpanScope span(log, "io.unpin");
      query.pool->UnpinBatch(pages);
    }
  }
  return Status::OK();
}

void FillModeled(const pmjoin::DiskModel& model, QueryOutcome* out,
                 LayerCounts* counts) {
  const pmjoin::CpuCostModel cpu;
  counts->modeled_join_cpu_s = cpu.JoinSeconds(out->ops);
  counts->modeled_io_s = out->io.ModeledSeconds(model);
  out->modeled_s = counts->modeled_io_s + counts->modeled_join_cpu_s +
                   cpu.PreprocessSeconds(out->ops);
}

namespace {

QueryOutcome FromReport(std::string key, const Result<JoinReport>& report,
                        const DigestSink& sink, int64_t start_ns) {
  QueryOutcome out;
  out.wall_ms = static_cast<double>(NowNs() - start_ns) / 1e6;
  out.key = std::move(key);
  if (!report.ok()) {
    out.error = report.status().message();
    return out;
  }
  out.ok = true;
  out.digest = sink.digest();
  out.io = report.value().io;
  out.ops = report.value().ops;
  out.modeled_s = report.value().TotalSeconds();
  return out;
}

std::string EpsKey(double eps) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "eps=%.17g", eps);
  return buf;
}

// ---------------------------------------------------------------- road_sc

/// Fig. 10: two 50k-point 2-d road networks joined with SC at B = 25 over
/// 1 KB pages, cycling five fixed ε values (about 100–190 ms per query).
class RoadWorkload final : public Workload {
 public:
  explicit RoadWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* backend() const override { return "sim"; }

  Status Prepare() override {
    const size_t n = config_.tiny ? 3000 : 50000;
    r_data_ = pmjoin::GenRoadNetwork(n, config_.seed);
    s_data_ = pmjoin::GenRoadNetwork(n, config_.seed + 1);
    return Status::OK();
  }

  Status Setup() override {
    disk_ = std::make_unique<SimulatedDisk>();
    Result<pmjoin::VectorDataset> r = pmjoin::VectorDataset::Build(
        disk_.get(), "R", r_data_, DatasetOptions());
    if (!r.ok()) return r.status();
    Result<pmjoin::VectorDataset> s = pmjoin::VectorDataset::Build(
        disk_.get(), "S", s_data_, DatasetOptions());
    if (!s.ok()) return s.status();
    r_.emplace(std::move(r).value());
    s_.emplace(std::move(s).value());
    driver_ = std::make_unique<JoinDriver>(disk_.get());
    const QueryOutcome warm = Run(0);
    return warm.ok ? Status::OK() : Status::Internal(warm.error);
  }

  void Teardown() override {
    driver_.reset();
    r_.reset();
    s_.reset();
    disk_.reset();
  }

  uint64_t CycleLength() const override { return kEps.size(); }

  QueryOutcome Run(uint64_t i) override {
    const double eps = kEps[i % kEps.size()];
    DigestSink sink;
    const int64_t start = NowNs();
    const Result<JoinReport> report =
        driver_->RunVector(*r_, *s_, eps, Options(), &sink);
    return FromReport(EpsKey(eps), report, sink, start);
  }

  Status Replay(uint64_t n, SpanLog* log, std::vector<QueryOutcome>* outcomes,
                std::vector<LayerCounts>* counts) override {
    SimulatedDisk disk;
    log->BeginQuery(kSetupQuery);
    std::optional<pmjoin::VectorDataset> r, s;
    for (auto [data, name, slot] :
         {std::tuple{&r_data_, "R", &r}, std::tuple{&s_data_, "S", &s}}) {
      pmjoin::VectorData copy = *data;
      SpanScope span(log, "data.build");
      Result<pmjoin::VectorDataset> built = pmjoin::VectorDataset::Build(
          &disk, name, std::move(copy), DatasetOptions());
      if (!built.ok()) return built.status();
      slot->emplace(std::move(built).value());
    }
    // Entry 0 is the warm-up, which is stream query 0.
    for (uint64_t i = 0; i <= n; ++i) {
      const uint64_t stream_index = i == 0 ? 0 : i - 1;
      log->BeginQuery(static_cast<uint32_t>(outcomes->size()));
      QueryOutcome out;
      LayerCounts layer;
      layer.warmup = i == 0;
      PMJOIN_RETURN_IF_ERROR(ReplayQuery(&disk, *r, *s,
                                         kEps[stream_index % kEps.size()],
                                         log, &out, &layer));
      outcomes->push_back(std::move(out));
      counts->push_back(layer);
    }
    return Status::OK();
  }

  void Verify(const std::vector<QueryOutcome>& outcomes,
              std::vector<bool>* wrong,
              std::vector<std::string>* notes) override {
    // One brute-force join at the largest ε; every smaller ε is the subset
    // that passes the same WithinDistance predicate.
    const double eps_max = *std::max_element(kEps.begin(), kEps.end());
    const std::vector<std::pair<uint64_t, uint64_t>> superset =
        ReferenceVectorPairs(r_data_, s_data_, eps_max, /*self_join=*/false);
    std::vector<std::pair<std::string, PairDigest>> expected;
    for (const double eps : kEps) {
      PairDigest digest;
      for (const auto& [i, j] : superset) {
        if (pmjoin::WithinDistance({r_data_.record(i), r_data_.dims},
                                   {s_data_.record(j), s_data_.dims},
                                   Norm::kL2, eps))
          digest.Add(i, j);
      }
      expected.emplace_back(EpsKey(eps), digest);
    }
    for (size_t q = 0; q < outcomes.size(); ++q) {
      for (const auto& [key, digest] : expected) {
        if (outcomes[q].key == key && !(outcomes[q].digest == digest))
          (*wrong)[q] = true;
      }
    }
    notes->push_back("road_sc: every query checked against ReferenceVectorJoin");
  }

 private:
  static pmjoin::VectorDataset::Options DatasetOptions() {
    pmjoin::VectorDataset::Options options;
    options.page_size_bytes = kPageBytes;
    return options;
  }
  static JoinOptions Options() {
    JoinOptions options;
    options.algorithm = Algorithm::kSc;
    options.buffer_pages = kBufferPages;
    options.page_size_bytes = kPageBytes;
    return options;
  }

  /// RunVector's SC path for one ε, layer by layer.
  Status ReplayQuery(SimulatedDisk* disk, const pmjoin::VectorDataset& r,
                     const pmjoin::VectorDataset& s, double eps, SpanLog* log,
                     QueryOutcome* out, LayerCounts* counts) {
    const JoinOptions options = Options();
    SpanScope root(log, "query");
    const int64_t start = NowNs();
    const IoStats io_before = disk->stats();
    OpCounters ops;
    DigestSink sink;
    pmjoin::VectorPairJoiner joiner(&r, &s, eps, options.norm, false);
    JoinInput input;
    input.r_file = r.file_id();
    input.s_file = s.file_id();
    input.r_pages = r.num_pages();
    input.s_pages = s.num_pages();
    input.joiner = &joiner;
    std::optional<PredictionMatrix> matrix;
    {
      SpanScope span(log, "core.matrix");
      matrix.emplace(pmjoin::BuildPredictionMatrixHierarchical(
          r.tree(), s.tree(), r.num_pages(), s.num_pages(), eps, options.norm,
          options.filter_iterations, &ops));
    }
    counts->eps_query = true;
    counts->dims = static_cast<uint32_t>(r.dims());
    counts->matrix_built = true;
    counts->build_mbr_tests = ops.mbr_tests;
    counts->marked_entries = matrix->MarkedCount();
    counts->matrix_selectivity = matrix->Selectivity();
    BufferPool pool(disk, options.buffer_pages);
    ClusteredReplay query;
    query.input = &input;
    query.matrix = &*matrix;
    query.algorithm = options.algorithm;
    query.buffer_pages = options.buffer_pages;
    query.seed = options.seed;
    query.pool = &pool;
    query.join_span = "geom.join";
    const Status st = ReplayClustered(query, log, &sink, &ops, counts);
    if (!st.ok()) return st;
    out->key = EpsKey(eps);
    out->ok = true;
    out->digest = sink.digest();
    out->io = disk->stats().Delta(io_before);
    out->ops = ops;
    FillModeled(disk->model(), out, counts);
    out->wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    return Status::OK();
  }

  static constexpr uint32_t kPageBytes = 1024;
  static constexpr uint32_t kBufferPages = 25;
  /// Fixed in the unit square the road networks fill, so the inputs are the
  /// generated points and nothing the library builds. On the shipped page
  /// packing they mark about 2%–3.5% of the page pairs (2% overlap
  /// outright). An odd number of equally frequent ε values puts the median
  /// and p90 inside one ε's spread of times instead of on a gap between two.
  static constexpr std::array<double, 5> kEps = {0.001, 0.005, 0.01, 0.015,
                                                 0.02};

  WorkloadConfig config_;
  pmjoin::VectorData r_data_;
  pmjoin::VectorData s_data_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::optional<pmjoin::VectorDataset> r_;
  std::optional<pmjoin::VectorDataset> s_;
  std::unique_ptr<JoinDriver> driver_;
};

// ----------------------------------------------------------------- dna_sc

/// Fig. 11: DNA self subsequence join (windows of 500, at most 5 edits)
/// on 12k nt of the HChr18 stand-in with SC at B = 12 over 1 KB pages
/// (22 pages; 12k nt already holds the stand-in's dense repeat region,
/// which sets the cost). Every query of the stream is the same join.
class DnaWorkload final : public Workload {
 public:
  explicit DnaWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* backend() const override { return "sim"; }

  Status Prepare() override {
    // The HChr18 stand-in of the Fig. 11 bench (its generator seed, repeat
    // and mutation rates and isochore floor) at this length. The join's
    // cost is set by where the chromosome's few long repeats fall against
    // page boundaries: it varies several-fold between generator seeds and
    // by half between rotations of one chromosome. So the workload seed
    // only relabels the alphabet and substitutes a few symbols — every
    // byte and some answers change, the repeat layout and the cost do not.
    std::vector<uint8_t> mouse;
    pmjoin::GenDnaPair(config_.tiny ? 6000 : kLength, 15000, kStandInSeed,
                       &symbols_, &mouse, 0.30, 0.004, 0.15);
    pmjoin::Rng rng(config_.seed);
    uint8_t relabel[4] = {0, 1, 2, 3};
    for (int i = 3; i > 0; --i) std::swap(relabel[i], relabel[rng.Uniform(i + 1)]);
    for (uint8_t& symbol : symbols_) {
      symbol = relabel[symbol];
      if (rng.Bernoulli(kSubstitutionRate))
        symbol = static_cast<uint8_t>((symbol + 1 + rng.Uniform(3)) % 4);
    }
    return Status::OK();
  }

  Status Setup() override {
    disk_ = std::make_unique<SimulatedDisk>();
    Result<pmjoin::StringSequenceStore> store =
        pmjoin::StringSequenceStore::Build(disk_.get(), "HChr18", symbols_,
                                           4, kWindow, kPageBytes);
    if (!store.ok()) return store.status();
    store_.emplace(std::move(store).value());
    driver_ = std::make_unique<JoinDriver>(disk_.get());
    // The warm-up keeps its pairs for Verify.
    pmjoin::CollectingSink collected;
    const Result<JoinReport> warm =
        driver_->RunString(*store_, *store_, kMaxEdits, Options(), &collected);
    if (!warm.ok()) return warm.status();
    warm_pairs_ = collected.pairs();
    return Status::OK();
  }

  void Teardown() override {
    driver_.reset();
    store_.reset();
    disk_.reset();
  }

  uint64_t CycleLength() const override { return 1; }

  QueryOutcome Run(uint64_t) override {
    DigestSink sink;
    const int64_t start = NowNs();
    const Result<JoinReport> report =
        driver_->RunString(*store_, *store_, kMaxEdits, Options(), &sink);
    return FromReport(Key(), report, sink, start);
  }

  Status Replay(uint64_t n, SpanLog* log, std::vector<QueryOutcome>* outcomes,
                std::vector<LayerCounts>* counts) override {
    SimulatedDisk disk;
    log->BeginQuery(kSetupQuery);
    std::optional<pmjoin::StringSequenceStore> store;
    {
      std::vector<uint8_t> copy = symbols_;
      SpanScope span(log, "data.build");
      Result<pmjoin::StringSequenceStore> built =
          pmjoin::StringSequenceStore::Build(&disk, "HChr18", std::move(copy),
                                             4, kWindow, kPageBytes);
      if (!built.ok()) return built.status();
      store.emplace(std::move(built).value());
    }
    std::optional<pmjoin::RStarTree> tree;
    // Entry 0 is the warm-up; every query of the stream is the same join.
    for (uint64_t i = 0; i <= n; ++i) {
      log->BeginQuery(static_cast<uint32_t>(outcomes->size()));
      QueryOutcome out;
      LayerCounts layer;
      layer.warmup = i == 0;
      SpanScope root(log, "query");
      const int64_t start = NowNs();
      if (!tree) {
        // JoinDriver builds the page tree on a store's first join and
        // caches it; the replay does the same inside the warm-up.
        SpanScope span(log, "index.page_tree");
        std::vector<pmjoin::RStarTree::Entry> leaves;
        for (uint32_t p = 0; p < store->page_mbrs().size(); ++p)
          leaves.push_back({store->page_mbrs()[p], p});
        tree.emplace(pmjoin::RStarTree::BulkLoadStr(
            store->page_mbrs()[0].dims(), std::move(leaves)));
        tree->AttachFile(&disk, "seq-page-tree");
      }
      const Status st =
          ReplayQuery(&disk, *store, *tree, log, &out, &layer);
      if (!st.ok()) return st;
      out.wall_ms = static_cast<double>(NowNs() - start) / 1e6;
      outcomes->push_back(std::move(out));
      counts->push_back(layer);
    }
    return Status::OK();
  }

  void Verify(const std::vector<QueryOutcome>& outcomes,
              std::vector<bool>* wrong,
              std::vector<std::string>* notes) override {
    // The brute-force string join is quadratic in windows times a full
    // edit-distance DP, far from cheap at this size. The warm-up's pairs
    // must match every stream query's digest, every sampled pair must be
    // within k edits (soundness), and sampled rows are recomputed by brute
    // force (completeness on those rows).
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs = warm_pairs_;
    PairDigest digest;
    for (const auto& [a, b] : pairs) digest.Add(a, b);
    bool all_wrong = false;
    const std::span<const uint8_t> text(symbols_);
    const auto window = [&](uint64_t w) { return text.subspan(w, kWindow); };
    pmjoin::Rng rng(config_.seed ^ 0x5EEDull);
    for (int t = 0; t < 64 && !pairs.empty() && !all_wrong; ++t) {
      const auto& [a, b] = pairs[rng.Uniform(pairs.size())];
      if (a + kWindow > b ||
          pmjoin::EditDistance(window(a), window(b)) > kMaxEdits)
        all_wrong = true;
    }
    const uint64_t windows = text.size() - kWindow + 1;
    for (int t = 0; t < kSampledRows && !all_wrong; ++t) {
      // Rows that own a result pair are the interesting ones; alternate
      // them with uniformly drawn rows.
      const uint64_t row = (t % 2 == 0 && !pairs.empty())
                               ? pairs[rng.Uniform(pairs.size())].first
                               : rng.Uniform(windows);
      std::vector<uint64_t> expect;
      for (uint64_t j = row + kWindow; j < windows; ++j) {
        if (CountDistance(text, row, j) <= 2 * kMaxEdits &&
            pmjoin::EditDistance(window(row), window(j)) <= kMaxEdits)
          expect.push_back(j);
      }
      std::vector<uint64_t> got;
      for (const auto& [a, b] : pairs)
        if (a == row) got.push_back(b);
      std::sort(got.begin(), got.end());
      if (got != expect) all_wrong = true;
    }
    for (size_t q = 0; q < outcomes.size(); ++q) {
      if (all_wrong || !(outcomes[q].digest == digest)) (*wrong)[q] = true;
    }
    notes->push_back(
        "dna_sc: every query matches the warm-up's pairs; 64 sampled pairs and " +
        std::to_string(kSampledRows) +
        " sampled rows checked by full edit-distance DP");
  }

 private:
  static constexpr size_t kLength = 12000;
  static constexpr uint64_t kStandInSeed = 0xD7A;
  static constexpr double kSubstitutionRate = 2e-4;
  static constexpr uint32_t kWindow = 500;
  static constexpr uint32_t kPageBytes = 1024;
  static constexpr uint32_t kBufferPages = 12;
  static constexpr uint32_t kMaxEdits = 5;
  static constexpr int kSampledRows = 8;

  static std::string Key() { return "edits=5"; }
  static JoinOptions Options() {
    JoinOptions options;
    options.algorithm = Algorithm::kSc;
    options.buffer_pages = kBufferPages;
    options.page_size_bytes = kPageBytes;
    return options;
  }

  /// L1 distance of the two windows' symbol counts — a lower bound of
  /// twice their edit distance, used only to skip hopeless rows.
  uint32_t CountDistance(std::span<const uint8_t> text, uint64_t a,
                         uint64_t b) {
    if (prefix_.empty()) {
      prefix_.assign((text.size() + 1) * 4, 0);
      for (size_t i = 0; i < text.size(); ++i) {
        for (int c = 0; c < 4; ++c)
          prefix_[(i + 1) * 4 + c] = prefix_[i * 4 + c] + (text[i] == c);
      }
    }
    uint32_t l1 = 0;
    for (int c = 0; c < 4; ++c) {
      const int64_t ca = int64_t(prefix_[(a + kWindow) * 4 + c]) -
                         prefix_[a * 4 + c];
      const int64_t cb = int64_t(prefix_[(b + kWindow) * 4 + c]) -
                         prefix_[b * 4 + c];
      l1 += static_cast<uint32_t>(ca > cb ? ca - cb : cb - ca);
    }
    return l1;
  }

  /// RunString's SC path, layer by layer.
  Status ReplayQuery(SimulatedDisk* disk,
                     const pmjoin::StringSequenceStore& store,
                     const pmjoin::RStarTree& tree, SpanLog* log,
                     QueryOutcome* out, LayerCounts* counts) {
    const JoinOptions options = Options();
    const IoStats io_before = disk->stats();
    OpCounters ops;
    DigestSink sink;
    pmjoin::StringPairJoiner joiner(&store, &store, kMaxEdits, true);
    JoinInput input;
    input.r_file = store.file_id();
    input.s_file = store.file_id();
    input.r_pages = store.layout().NumPages();
    input.s_pages = store.layout().NumPages();
    input.self_join = true;
    input.joiner = &joiner;
    std::optional<PredictionMatrix> matrix;
    {
      SpanScope span(log, "core.matrix");
      matrix.emplace(pmjoin::BuildPredictionMatrixHierarchical(
          tree, tree, input.r_pages, input.s_pages, joiner.MatrixThreshold(),
          Norm::kL1, options.filter_iterations, &ops));
    }
    counts->eps_query = true;
    counts->string_join = true;
    counts->matrix_built = true;
    counts->build_mbr_tests = ops.mbr_tests;
    counts->marked_entries = matrix->MarkedCount();
    counts->matrix_selectivity = matrix->Selectivity();
    BufferPool pool(disk, options.buffer_pages);
    ClusteredReplay query;
    query.input = &input;
    query.matrix = &*matrix;
    query.algorithm = options.algorithm;
    query.buffer_pages = options.buffer_pages;
    query.seed = options.seed;
    query.pool = &pool;
    query.join_span = "seq.join";
    const Status st = ReplayClustered(query, log, &sink, &ops, counts);
    if (!st.ok()) return st;
    out->key = Key();
    out->ok = true;
    out->digest = sink.digest();
    out->io = disk->stats().Delta(io_before);
    out->ops = ops;
    FillModeled(disk->model(), out, counts);
    return Status::OK();
  }

  WorkloadConfig config_;
  std::vector<uint8_t> symbols_;
  std::vector<uint32_t> prefix_;
  std::vector<std::pair<uint64_t, uint64_t>> warm_pairs_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::optional<pmjoin::StringSequenceStore> store_;
  std::unique_ptr<JoinDriver> driver_;
};

}  // namespace

std::unique_ptr<Workload> MakeRoadWorkload(const WorkloadConfig& config) {
  return std::make_unique<RoadWorkload>(config);
}

std::unique_ptr<Workload> MakeDnaWorkload(const WorkloadConfig& config) {
  return std::make_unique<DnaWorkload>(config);
}

}  // namespace perfbench
