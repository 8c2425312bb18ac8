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

/// In-memory join of a range of marked entries: calls
/// `input.joiner->JoinPages` for each entry in order. This is the entry-
/// join kernel of the executor's join step (inline, or one per worker
/// chunk) and of pm-NLJ-style callers that already hold the pages
/// resident. The caller guarantees every referenced page is
/// buffer-resident.
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
/// `num_threads` sets who joins a cluster's marked entries. 1 (the
/// default) joins them on the calling thread. With n > 1, the entry list
/// is split into n contiguous chunks joined concurrently on n worker
/// threads, and results and CPU counters are gathered from per-thread
/// shards in chunk order. Pins and unpins happen on the calling thread at
/// the same positions either way, so the emitted pair sequence, the
/// aggregated `OpCounters` and the simulated I/O stats do not depend on
/// the thread count (the disk-access sequence, and with it the Lemma 3–4
/// seek accounting, is the one-thread run's).
Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops, uint32_t num_threads = 1);

}  // namespace pmjoin

#endif  // PMJOIN_CORE_EXECUTOR_H_
