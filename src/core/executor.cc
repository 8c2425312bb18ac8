#include "core/executor.h"

#include <algorithm>
#include <optional>
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

/// The join step of a multi-threaded run: worker threads plus one pair
/// buffer and one counter shard per worker, reused for every cluster.
/// Workers compute on dataset memory only (the pool tracks residency, not
/// payloads), so they never touch the pool or the disk.
class ChunkedJoin {
 public:
  explicit ChunkedJoin(uint32_t num_threads)
      : pair_shards_(num_threads),
        op_shards_(num_threads),
        workers_(num_threads) {}

  /// Splits `entries` into contiguous chunks, one per worker, joins them
  /// concurrently and drains the shards in chunk order: the serial
  /// emission sequence and counter sums, whatever the thread count.
  void Run(const JoinInput& input, std::span<const MatrixEntry> entries,
           PairSink* sink, OpCounters* ops) {
    const size_t n = entries.size();
    const uint32_t chunks =
        static_cast<uint32_t>(std::min<size_t>(workers_.size(), n));
    // Worker spans nest under the coordinator's open spans
    // (join/execute/cluster); each task carries its own copy of the names.
    std::vector<const char*> parents = obs::OpenSpanNames();
    WaitGroup wg;
    wg.Add(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
      const size_t lo = n * c / chunks;
      const size_t hi = n * (c + 1) / chunks;
      const std::span<const MatrixEntry> chunk = entries.subspan(lo, hi - lo);
      PairSink* chunk_sink = pair_shards_.shard(c);
      OpCounters* chunk_ops = op_shards_.shard(c);
      workers_.Submit([&input, &wg, parents, chunk, chunk_sink,
                       chunk_ops]() mutable {
        {
          obs::ScopedSpanParents adopt(std::move(parents));
          // Scoped so the span's final read of *chunk_ops completes before
          // Done() releases the chunk to the drain below.
          PMJOIN_SPAN_OPS("join_entries", chunk_ops);
          JoinEntries(input, chunk, chunk_sink, chunk_ops);
        }
        wg.Done();
      });
    }
    wg.Wait();
    op_shards_.DrainInto(ops);
    pair_shards_.Drain(sink);
  }

 private:
  ShardedPairSink pair_shards_;
  ShardedOpCounters op_shards_;
  // Declared last, so the workers stop before the shards they write die.
  ThreadPool workers_;
};

}  // namespace

Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops, uint32_t num_threads) {
  PMJOIN_SPAN_OPS("execute", ops);
  if (order.size() != clusters.size())
    return Status::InvalidArgument("order size != cluster count");
  // One thread joins inline: no workers and no shards.
  std::optional<ChunkedJoin> chunked;
  if (num_threads > 1 && !order.empty()) chunked.emplace(num_threads);
  for (const uint32_t index : order) {
    PMJOIN_SPAN_OPS_ARG("cluster", ops, index);
    if (index >= clusters.size())
      return Status::InvalidArgument("order index out of range");
    const Cluster& cluster = clusters[index];
    const std::vector<PageId> pages = ClusterPageSet(cluster, input);
    if (pages.size() > pool->capacity())
      return Status::BufferFull("cluster larger than buffer pool");
    PMJOIN_RETURN_IF_ERROR(pool->PinBatch(pages));
    if (chunked) {
      chunked->Run(input, cluster.entries, sink, ops);
    } else {
      JoinEntries(input, cluster.entries, sink, ops);
    }
    pool->UnpinBatch(pages);
    // Phase boundary: the cluster's pins are released, the pool must be
    // back in a self-consistent state (paranoid builds only).
    PMJOIN_DCHECK_OK(pool->ValidateInvariants());
  }
  return Status::OK();
}

}  // namespace pmjoin
