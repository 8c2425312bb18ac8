#ifndef PMJOIN_SERVER_ARTIFACT_CACHE_H_
#define PMJOIN_SERVER_ARTIFACT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/op_counters.h"
#include "common/result.h"
#include "common/sync.h"
#include "core/knn_join.h"
#include "core/prediction_matrix.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/storage_backend.h"
#include "server/job.h"

namespace pmjoin {
namespace server {

/// Per-dataset artifacts shared across the queries of one server process:
/// the datasets themselves (pages + page MBRs + R-tree) and the
/// prediction matrices derived from dataset pairs.
///
/// Keys are pure functions of the inputs, so cached artifacts are
/// bit-identical to freshly built ones and reuse can never change a
/// query's results:
///
///   - datasets: DatasetSpec::Canonical() — the generators are
///     deterministic in (kind, n, seed, dims), and VectorDataset::Open
///     restores a persisted build bit-identically (PR 5).
///   - matrices: (r key, s key, eps, norm) plus the build knobs
///     (hierarchical, filter iterations). Everything Theorem 1 reads.
///   - kNN candidate matrices: (r key, s key, norm) only — the structure
///     is ε- and k-free (sorted MINDIST lower bounds per page pair), so
///     one cached build serves every k over the same dataset pair.
///
/// Invalidation: never — every key pins immutable content, so entries
/// stay valid for the process lifetime (restarting the server is the only
/// eviction; a persistent backend then turns rebuilds into Opens).
///
/// Thread-safe: one mutex (rank lock_rank::kArtifactCache) guards the
/// memo maps and stats. The server's single worker is the only builder
/// today, but stats() may race it from reporting threads — the lock is
/// held across builds by design so a second requester of the same key
/// waits for the first build instead of duplicating it.
class ArtifactCache {
 public:
  struct Options {
    uint32_t page_size_bytes = 4096;
    /// Persist freshly built datasets to the backend (Persist()), so a
    /// later server process over the same file backend Opens them
    /// instead of regenerating.
    bool persist_datasets = false;
    /// Matrix-build knobs; part of the matrix cache key by fiat (the
    /// server fixes them process-wide).
    bool hierarchical_matrix = true;
    uint32_t filter_iterations = 5;
  };

  ArtifactCache(StorageBackend* disk, Options options);

  /// The dataset for `spec`, from (in order): the in-memory map, a
  /// persisted copy on the backend (`Open`), or a fresh generate + Build
  /// (persisted when Options::persist_datasets). The pointer is stable
  /// for the cache's lifetime — two specs with equal canonical forms
  /// return the *same* object, which is how a self-join (`&r == &s`)
  /// reaches the driver.
  Result<const VectorDataset*> GetDataset(const DatasetSpec& spec)
      PMJOIN_EXCLUDES(mu_);

  /// A memoized matrix plus the OpCounters its build charged; the driver
  /// replays those on reuse so a cache hit reports the same modeled CPU
  /// cost as a cold build (JoinResources::matrix_build_ops).
  struct CachedMatrix {
    PredictionMatrix matrix;
    OpCounters build_ops;
  };

  /// The prediction matrix for (r, s, eps, norm), building and memoizing
  /// it on first use. Both datasets must already be cached (GetDataset).
  /// `*hit` reports whether this call was served from memory.
  Result<const CachedMatrix*> GetMatrix(const DatasetSpec& r,
                                        const DatasetSpec& s, double eps,
                                        Norm norm, bool* hit)
      PMJOIN_EXCLUDES(mu_);

  /// A memoized kNN candidate matrix plus its build OpCounters, replayed
  /// on reuse (JoinResources::knn_matrix_build_ops) just like
  /// CachedMatrix::build_ops.
  struct CachedKnnMatrix {
    KnnCandidateMatrix matrix;
    OpCounters build_ops;
  };

  /// The kNN candidate matrix for (r, s, norm), building and memoizing
  /// it on first use. Keyed without eps or k, so every kNN query over
  /// the same dataset pair and norm hits the same entry. `*hit` reports
  /// whether this call was served from memory.
  Result<const CachedKnnMatrix*> GetKnnMatrix(const DatasetSpec& r,
                                              const DatasetSpec& s,
                                              Norm norm, bool* hit)
      PMJOIN_EXCLUDES(mu_);

  /// Monotonic since construction; "hit" = served from memory, "open" =
  /// restored from the backend, "build" = generated from scratch.
  struct Stats {
    uint64_t dataset_hits = 0;
    uint64_t dataset_opens = 0;
    uint64_t dataset_builds = 0;
    uint64_t matrix_hits = 0;
    uint64_t matrix_builds = 0;
    uint64_t knn_matrix_hits = 0;
    uint64_t knn_matrix_builds = 0;
  };
  Stats stats() const PMJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  /// GetDataset body, for callers (GetMatrix) already holding the lock.
  Result<const VectorDataset*> GetDatasetLocked(const DatasetSpec& spec)
      PMJOIN_REQUIRES(mu_);

  StorageBackend* disk_;
  Options options_;
  mutable Mutex mu_{lock_rank::kArtifactCache, "ArtifactCache::mu_"};
  Stats stats_ PMJOIN_GUARDED_BY(mu_);
  /// unique_ptr values: GetDataset hands out stable pointers.
  std::map<std::string, std::unique_ptr<VectorDataset>> datasets_
      PMJOIN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<CachedMatrix>> matrices_
      PMJOIN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<CachedKnnMatrix>> knn_matrices_
      PMJOIN_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace pmjoin

#endif  // PMJOIN_SERVER_ARTIFACT_CACHE_H_
