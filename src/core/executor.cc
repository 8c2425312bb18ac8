#include "core/executor.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "io/async_reader.h"
#include "io/disk_scheduler.h"
#include "obs/span.h"

namespace pmjoin {

void JoinEntries(const JoinInput& input, std::span<const MatrixEntry> entries,
                 PairSink* sink, OpCounters* ops) {
  for (const MatrixEntry& e : entries) {
    input.joiner->JoinPages(e.row, e.col, sink, ops);
  }
}

namespace {

/// Validates the next cluster index and computes its page set, mirroring
/// the serial loop's per-cluster checks so both paths fail at the same
/// point with the same status.
Status ValidateAndPageSet(const JoinInput& input,
                          const std::vector<Cluster>& clusters,
                          uint32_t index, uint32_t capacity,
                          std::vector<PageId>* pages) {
  if (index >= clusters.size())
    return Status::InvalidArgument("order index out of range");
  *pages = ClusterPageSet(clusters[index], input);
  if (pages->size() > capacity)
    return Status::BufferFull("cluster larger than buffer pool");
  return Status::OK();
}

/// True iff pinning `pages` now (with the current cluster still pinned)
/// provably succeeds, charges the same simulated I/O, and evicts the same
/// victims as pinning them at the serial position (after the current
/// cluster is unpinned).
///
/// Why this is sufficient: Unpin changes no residency and no counters, so
/// the hit/miss classification of `pages` — and hence the transfer/seek
/// schedule over the miss set — is the same at both positions. The only
/// state difference is that the serial pool's LRU list additionally holds
/// the current cluster's pages *at its tail*. Victims pop from the front.
///
/// The victim supply, however, is not UnpinnedCount(): PinBatch pins the
/// batch's resident pages *before* admitting any miss (and pins each
/// admitted miss immediately), so a batch page that is resident-unpinned
/// right now leaves the LRU list before the first eviction and can never
/// be a victim of its own batch. Only evictable pages *outside* the batch
/// count. If the evictions needed (resident + misses − capacity) fit in
/// that supply, both runs evict the identical prefix of the shared
/// non-batch LRU — and the pin cannot fail mid-batch (PinBatch failure is
/// not state-neutral, so a failed early pin would already have diverged
/// the accounting; see io/buffer_pool.h). Beyond the bound the serial run
/// would draw victims from the current cluster's just-unpinned pages, so
/// the caller defers the pin to the serial position instead.
bool CanPrefetch(const BufferPool& pool, std::span<const PageId> pages) {
  uint64_t misses = 0;
  uint64_t batch_evictable = 0;
  for (const PageId& pid : pages) {
    if (!pool.Contains(pid))
      ++misses;
    else if (pool.IsEvictable(pid))
      ++batch_evictable;
  }
  const uint64_t after = pool.ResidentCount() + misses;
  const uint64_t evictions =
      after > pool.capacity() ? after - pool.capacity() : 0;
  return evictions + batch_evictable <= pool.UnpinnedCount();
}

/// The seek-optimal physical read schedule of `pages`'s non-resident
/// subset — the runs the later PinBatch will issue for them. Exact for
/// the immediately next cluster (nothing changes residency between this
/// prediction and that PinBatch: Unpin touches no residency, and
/// PinBatch pins a batch's resident pages before any eviction). For
/// clusters staged further ahead the prediction can go stale — see
/// StagingWindow.
std::vector<PageRun> MissRuns(BufferPool* pool,
                              std::span<const PageId> pages) {
  std::vector<PageId> missed;
  for (const PageId& pid : pages) {
    if (!pool->Contains(pid)) missed.push_back(pid);
  }
  return BuildSchedule(*pool->disk(), std::move(missed));
}

/// Hands one upcoming cluster's miss runs to the async reader, which
/// physically reads them into staging buffers while earlier clusters are
/// joined. The schedule is split into one contiguous slice per reader
/// thread, so multiple I/O threads share a cluster's reads while each
/// slice stays in seek-optimal order. (Deliberately no fadvise hint on
/// this path: the reader threads issue the reads themselves, and an
/// additional WILLNEED readahead measurably competes with them for CPU;
/// the hint path serves the synchronous pin-early prefetch, which has no
/// reader thread working for it.)
/// Ledger-neutral: staging charges no modeled I/O — consumption happens
/// inside the later PinBatch at its usual position, where the base
/// backend applies the identical accounting the synchronous read would
/// have.
void StageCluster(BufferPool* pool, AsyncReader* reader,
                  std::span<const PageId> next, uint32_t next_index) {
  PMJOIN_SPAN_ARG("prefetch_async", next_index);
  const std::vector<PageRun> runs = MissRuns(pool, next);
  if (runs.empty()) return;
  const size_t slices = std::min<size_t>(reader->num_threads(), runs.size());
  const size_t per_slice = (runs.size() + slices - 1) / slices;
  for (size_t begin = 0; begin < runs.size(); begin += per_slice) {
    reader->SubmitBatch(std::span(runs).subspan(
        begin, std::min(per_slice, runs.size() - begin)));
  }
}

/// Sliding lookahead window for the async read pipeline: keeps the miss
/// runs of up to kLookaheadClusters upcoming clusters staged ahead of the
/// join cursor, bounded by a staged-page budget so staging memory stays a
/// few MB regardless of pool size (the cluster right after the cursor is
/// always staged, matching the minimum one-cluster pipeline). Depth
/// beyond one cluster is what keeps the I/O threads busy while the
/// coordinator consumes and joins — with a single cluster in flight the
/// pipeline drains at every cluster boundary, serializing reader and
/// coordinator again.
///
/// Staleness: runs for clusters beyond the immediately next one are
/// predicted against residency at stage time; pins and evictions by the
/// intervening clusters can shift the pin-time run boundaries (only where
/// page sets overlap). A stale staged run is simply never consumed — the
/// pin reads those pages synchronously and DropStaged reclaims the run
/// when the join finishes. Correctness and the modeled ledger are
/// unaffected; only the wasted physical read is lost.
class StagingWindow {
 public:
  static constexpr size_t kLookaheadClusters = 16;
  static constexpr size_t kLookaheadPages = 1024;

  StagingWindow(const JoinInput& input, const std::vector<Cluster>& clusters,
                std::span<const uint32_t> order, BufferPool* pool,
                AsyncReader* reader)
      : input_(input),
        clusters_(clusters),
        order_(order),
        pool_(pool),
        reader_(reader) {}

  /// Stages every not-yet-staged cluster in (i, i + kLookaheadClusters]
  /// that fits the page budget (the first of them unconditionally). Call
  /// right after cluster order[i]'s pins land; `i` must be monotone.
  void Advance(size_t i) {
    if (reader_ == nullptr) return;
    while (!window_.empty() && window_.front().first <= i) {
      staged_pages_ -= window_.front().second;
      window_.pop_front();
    }
    if (next_ <= i) next_ = i + 1;
    while (next_ < order_.size() && next_ <= i + kLookaheadClusters) {
      std::vector<PageId> pages;
      // A validation failure is ignored on purpose: the join loop's own
      // iteration for that cluster fails at the same point with the same
      // status.
      if (!ValidateAndPageSet(input_, clusters_, order_[next_],
                              pool_->capacity(), &pages)
               .ok())
        return;
      if (next_ > i + 1 && staged_pages_ + pages.size() > kLookaheadPages)
        return;
      StageCluster(pool_, reader_, pages, order_[next_]);
      window_.emplace_back(next_, pages.size());
      staged_pages_ += pages.size();
      ++next_;
    }
  }

 private:
  const JoinInput& input_;
  const std::vector<Cluster>& clusters_;
  const std::span<const uint32_t> order_;
  BufferPool* const pool_;
  AsyncReader* const reader_;
  /// (order position, page count) of clusters staged and not yet passed
  /// by the cursor; `staged_pages_` is the sum of the page counts.
  std::deque<std::pair<size_t, size_t>> window_;
  size_t staged_pages_ = 0;
  size_t next_ = 0;
};

/// The serial §8 loop: read each cluster's page set with the seek-optimal
/// schedule, join its marked entries in memory, release the pins. With an
/// async reader, the next cluster's physical reads are staged right after
/// this cluster's pins land, so they proceed while the entries join.
Status ExecuteSerial(const JoinInput& input,
                     const std::vector<Cluster>& clusters,
                     std::span<const uint32_t> order, BufferPool* pool,
                     PairSink* sink, OpCounters* ops, AsyncReader* reader) {
  StagingWindow staging(input, clusters, order, pool, reader);
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t index = order[i];
    PMJOIN_SPAN_OPS_ARG("cluster", ops, index);
    std::vector<PageId> pages;
    PMJOIN_RETURN_IF_ERROR(ValidateAndPageSet(input, clusters, index,
                                              pool->capacity(), &pages));
    PMJOIN_RETURN_IF_ERROR(pool->PinBatch(pages));
    staging.Advance(i);
    JoinEntries(input, clusters[index].entries, sink, ops);
    pool->UnpinBatch(pages);
    // Phase boundary: the cluster's pins are released, the pool must be
    // back in a self-consistent state (paranoid builds only).
    PMJOIN_DCHECK_OK(pool->ValidateInvariants());
  }
  return Status::OK();
}

/// The parallel executor: workers join the current cluster's entries in
/// contiguous chunks while the coordinator stages the next cluster's pages.
///
/// Invariants that keep every observable identical to ExecuteSerial:
///  - Pool and disk are touched by the coordinator thread only; workers
///    compute on dataset memory (pages pinned for the cluster they are
///    joining) and write to private sink/counter shards.
///  - Cluster k+1's pages are pinned early only when CanPrefetch proves
///    the charged I/O and the eviction victims match the serial position;
///    otherwise the pin happens exactly where the serial loop does it.
///  - Chunks are contiguous subranges of the entry list assigned to shards
///    in order, and shards are drained in shard order after the cluster's
///    WaitGroup clears — reproducing the serial emission sequence, not
///    just the set.
Status ExecuteParallel(const JoinInput& input,
                       const std::vector<Cluster>& clusters,
                       std::span<const uint32_t> order, BufferPool* pool,
                       PairSink* sink, OpCounters* ops, uint32_t num_threads,
                       AsyncReader* reader) {
  ThreadPool workers(num_threads);
  const uint32_t num_workers = workers.size();

  ShardedPairSink pair_shards(num_workers);
  ShardedOpCounters op_shards(num_workers);

  StagingWindow staging(input, clusters, order, pool, reader);
  std::vector<PageId> current;
  PMJOIN_RETURN_IF_ERROR(ValidateAndPageSet(input, clusters, order[0],
                                            pool->capacity(), &current));
  PMJOIN_RETURN_IF_ERROR(pool->PinBatch(current));

  for (size_t i = 0; i < order.size(); ++i) {
    PMJOIN_SPAN_OPS_ARG("cluster", ops, order[i]);
    const Cluster& cluster = clusters[order[i]];
    const size_t n = cluster.entries.size();
    const uint32_t chunks = static_cast<uint32_t>(
        std::min<size_t>(num_workers, n));

    WaitGroup wg;
    wg.Add(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
      const size_t lo = n * c / chunks;
      const size_t hi = n * (c + 1) / chunks;
      const std::span<const MatrixEntry> chunk(cluster.entries.data() + lo,
                                               hi - lo);
      PairSink* chunk_sink = pair_shards.shard(c);
      OpCounters* chunk_ops = op_shards.shard(c);
      workers.Submit([&input, &wg, chunk, chunk_sink, chunk_ops] {
        {
          // Scoped so the span's final read of *chunk_ops completes before
          // Done() releases the chunk to the coordinator's drain.
          PMJOIN_SPAN_OPS("join_entries", chunk_ops);
          JoinEntries(input, chunk, chunk_sink, chunk_ops);
        }
        wg.Done();
      });
    }

    // Prefetch stage: while the workers chew on cluster i, stage the
    // upcoming clusters' pages. The async reader moves the physical bytes
    // regardless (ledger-neutral); the feasibility gate still decides
    // whether cluster i+1's pages may additionally be *pinned* early
    // (accounting-neutral pin).
    const bool have_next = i + 1 < order.size();
    Status next_status;
    std::vector<PageId> next;
    bool next_pinned = false;
    if (have_next) {
      PMJOIN_SPAN_ARG("prefetch", order[i + 1]);
      next_status = ValidateAndPageSet(input, clusters, order[i + 1],
                                       pool->capacity(), &next);
      if (next_status.ok()) {
        const bool pin_early = CanPrefetch(*pool, next);
        if (reader != nullptr) {
          staging.Advance(i);
        } else if (pin_early) {
          // Kernel read-ahead hint for the accepted batch's miss runs.
          for (const PageRun& run : MissRuns(pool, next)) {
            pool->disk()->AdviseWillNeed(run.start, run.length);
          }
        }
        if (pin_early) {
          next_status = pool->PinBatch(next);
          next_pinned = next_status.ok();
        }
      }
    }

    wg.Wait();
    op_shards.DrainInto(ops);
    pair_shards.Drain(sink);
    pool->UnpinBatch(current);
    // Phase boundary: cluster i's pins are gone and its shards drained;
    // only the (optional) prefetched batch may still hold pins.
    PMJOIN_DCHECK_OK(pool->ValidateInvariants());

    if (have_next) {
      PMJOIN_RETURN_IF_ERROR(next_status);
      if (!next_pinned) PMJOIN_RETURN_IF_ERROR(pool->PinBatch(next));
      current = std::move(next);
    }
  }
  return Status::OK();
}

}  // namespace

Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops,
                            const ExecutorOptions& options) {
  PMJOIN_SPAN_OPS("execute", ops);
  if (order.size() != clusters.size())
    return Status::InvalidArgument("order size != cluster count");
  if (order.empty()) return Status::OK();

  // Async read pipeline. `cleanup` is declared before the reader so the
  // unwind order — on every exit path, including errors — is: join the
  // I/O threads first (no further PerformStage can start), then drop
  // whatever was staged but never consumed.
  struct StagedCleanup {
    StorageBackend* disk = nullptr;
    ~StagedCleanup() {
      if (disk != nullptr) disk->DropStaged();
    }
  } cleanup;
  std::optional<AsyncReader> reader;
  if (options.io_threads > 0 && pool->disk()->SupportsStaging()) {
    cleanup.disk = pool->disk();
    reader.emplace(pool->disk(), options.io_threads);
  }
  AsyncReader* reader_ptr = reader ? &*reader : nullptr;

  if (options.num_threads <= 1)
    return ExecuteSerial(input, clusters, order, pool, sink, ops, reader_ptr);
  return ExecuteParallel(input, clusters, order, pool, sink, ops,
                         options.num_threads, reader_ptr);
}

}  // namespace pmjoin
