#include "core/executor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
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

/// The serial §8 loop: read each cluster's page set with the seek-optimal
/// schedule, join its marked entries in memory, release the pins.
Status ExecuteSerial(const JoinInput& input,
                     const std::vector<Cluster>& clusters,
                     std::span<const uint32_t> order, BufferPool* pool,
                     PairSink* sink, OpCounters* ops) {
  for (const uint32_t index : order) {
    PMJOIN_SPAN_OPS_ARG("cluster", ops, index);
    std::vector<PageId> pages;
    PMJOIN_RETURN_IF_ERROR(ValidateAndPageSet(input, clusters, index,
                                              pool->capacity(), &pages));
    PMJOIN_RETURN_IF_ERROR(pool->PinBatch(pages));
    JoinEntries(input, clusters[index].entries, sink, ops);
    pool->UnpinBatch(pages);
    // Phase boundary: the cluster's pins are released, the pool must be
    // back in a self-consistent state (paranoid builds only).
    PMJOIN_DCHECK_OK(pool->ValidateInvariants());
  }
  return Status::OK();
}

/// The parallel executor: workers join the current cluster's entries in
/// contiguous chunks while the coordinator pins the next cluster's pages.
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
                       PairSink* sink, OpCounters* ops, uint32_t num_threads) {
  ThreadPool workers(num_threads);
  const uint32_t num_workers = workers.size();

  ShardedPairSink pair_shards(num_workers);
  ShardedOpCounters op_shards(num_workers);

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

    // Prefetch stage: while the workers chew on cluster i, pin cluster
    // i+1's pages when the feasibility gate proves the early pin
    // accounting-neutral.
    const bool have_next = i + 1 < order.size();
    Status next_status;
    std::vector<PageId> next;
    bool next_pinned = false;
    if (have_next) {
      PMJOIN_SPAN_ARG("prefetch", order[i + 1]);
      next_status = ValidateAndPageSet(input, clusters, order[i + 1],
                                       pool->capacity(), &next);
      if (next_status.ok() && CanPrefetch(*pool, next)) {
        next_status = pool->PinBatch(next);
        next_pinned = next_status.ok();
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
                            OpCounters* ops, uint32_t num_threads) {
  PMJOIN_SPAN_OPS("execute", ops);
  if (order.size() != clusters.size())
    return Status::InvalidArgument("order size != cluster count");
  if (order.empty()) return Status::OK();
  if (num_threads <= 1)
    return ExecuteSerial(input, clusters, order, pool, sink, ops);
  return ExecuteParallel(input, clusters, order, pool, sink, ops,
                         num_threads);
}

}  // namespace pmjoin
