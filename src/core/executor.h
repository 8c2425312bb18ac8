#ifndef PMJOIN_CORE_EXECUTOR_H_
#define PMJOIN_CORE_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/cluster.h"
#include "io/buffer_pool.h"

namespace pmjoin {

/// Execution knobs for ExecuteClusteredJoin. The defaults reproduce the
/// paper's serial executor exactly; all existing callers and figures are
/// unchanged.
struct ExecutorOptions {
  /// Worker threads joining a cluster's marked entries. 1 (the default)
  /// runs the serial §8 loop on the calling thread. With n > 1, each
  /// cluster's entry list is split into n contiguous chunks joined
  /// concurrently; results and CPU counters are gathered from per-thread
  /// shards in chunk order, so the emitted pair sequence and the
  /// aggregated `OpCounters` are identical to the serial run's.
  uint32_t num_threads = 1;

  /// Dedicated I/O threads for the async read pipeline (0, the default,
  /// keeps every physical read synchronous). When > 0 and the backend
  /// supports staging (FileBackend), cluster k+1's non-resident pages are
  /// *physically* read in the background — in the same seek-optimal
  /// schedule order — while cluster k is joined, then consumed by the
  /// normal PinBatch at its usual position. Ledger-neutral by
  /// construction: the modeled IoStats are charged at consumption exactly
  /// as in the synchronous run; only the wall-clock timing of the bytes
  /// changes. Independent of num_threads: it works with the serial
  /// executor, and in the parallel one the feasibility gate still decides
  /// whether pages are *pinned* early (staging never pins).
  uint32_t io_threads = 0;
};

/// In-memory join of a range of marked entries: calls
/// `input.joiner->JoinPages` for each entry in order. This is the entry-
/// join kernel shared by the serial executor, each parallel worker's
/// chunk, and pm-NLJ-style callers that already hold the pages resident.
/// The caller guarantees every referenced page is buffer-resident.
void JoinEntries(const JoinInput& input, std::span<const MatrixEntry> entries,
                 PairSink* sink, OpCounters* ops);

/// Processes clusters in the given order (§8): for each cluster, its page
/// set is read through the buffer pool using the seek-optimal multi-page
/// schedule (step 1), and its marked entries are joined in memory (step 2
/// — Lemma 2 guarantees the pages fit). Pages shared with recently
/// processed clusters are still pool-resident and cost nothing, which is
/// exactly the reuse the schedule maximizes.
///
/// `order` holds indices into `clusters` (e.g. from ScheduleClusters, or a
/// shuffled order for the random-SC baseline).
///
/// With `options.num_threads > 1` the in-memory join of each cluster runs
/// on a worker pool and the next cluster's pages are prefetched while it
/// runs; the result-pair sequence, CPU counters, and simulated I/O stats
/// are guaranteed identical to the serial execution (the disk-access
/// sequence is preserved, keeping the Lemma 3–4 seek accounting intact).
Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops,
                            const ExecutorOptions& options = {});

}  // namespace pmjoin

#endif  // PMJOIN_CORE_EXECUTOR_H_
