#ifndef PMJOIN_SERVER_ADMISSION_H_
#define PMJOIN_SERVER_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/status.h"
#include "common/sync.h"
#include "server/job.h"

namespace pmjoin {
namespace server {

/// A job accepted into the queue, with its submission order and enqueue
/// timestamp (obs::MonotonicNanos) for queue-wait accounting.
struct QueuedQuery {
  uint64_t index = 0;  ///< Dense per-server query index (result slot).
  JobSpec job;
  int64_t enqueue_ns = 0;
};

/// Static admission policy, checked before a job may enter the queue.
/// Rejections are cheap and synchronous — nothing is generated, built, or
/// cached for a rejected job.
///
/// A job is admitted iff:
///   - both dataset specs parse (DatasetSpec::Parse) and agree on dims
///     (the driver would reject the pair anyway; failing here is free),
///   - it is exactly one of the two query shapes: an ε-join (eps > 0,
///     k == 0) or a kNN join (k >= 1, eps == 0),
///   - for ε-joins, the engine is in the served matrix family
///     (ParseEngine enforces this at parse time; re-checked for
///     programmatic submissions — kNN jobs ignore the engine field),
///   - its buffer_pages (explicit or server default) fits the shared
///     pool, so the query cannot deadlock on pool capacity,
///   - num_threads is at most max_threads.
class AdmissionController {
 public:
  struct Options {
    uint32_t pool_pages = 256;          ///< Shared pool capacity.
    uint32_t default_buffer_pages = 100;
    uint32_t default_threads = 1;
    uint32_t max_threads = 64;
  };

  explicit AdmissionController(Options options) : options_(options) {}

  /// Checks the policy above. On OK, `job`'s zero-valued knobs have been
  /// resolved to the server defaults in place.
  Status Admit(JobSpec* job) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Bounded multi-producer single-consumer FIFO between the submission
/// side (any thread) and the server's worker. Bounding the queue is the
/// server's backpressure mechanism: TryPush refuses with BufferFull when
/// the bound is reached (the caller sees an explicit rejection), and
/// PushBlocking parks the producer instead — pick per submission.
class QueryQueue {
 public:
  explicit QueryQueue(size_t capacity);

  /// Enqueues, or fails with BufferFull (queue at capacity) /
  /// InvalidArgument (queue closed). Never blocks.
  Status TryPush(QueuedQuery query) PMJOIN_EXCLUDES(mu_);

  /// Enqueues, waiting for space if the queue is at capacity. Fails only
  /// if the queue is closed while waiting.
  Status PushBlocking(QueuedQuery query) PMJOIN_EXCLUDES(mu_);

  /// Dequeues the oldest entry, blocking while the queue is open and
  /// empty. Returns nullopt once the queue is closed *and* drained —
  /// the worker's termination signal.
  std::optional<QueuedQuery> Pop() PMJOIN_EXCLUDES(mu_);

  /// Closes the queue: further pushes fail, blocked producers wake with
  /// an error, and Pop drains the remaining entries before returning
  /// nullopt.
  void Close() PMJOIN_EXCLUDES(mu_);

  size_t Depth() const PMJOIN_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// High-water mark of Depth() over the queue's lifetime.
  size_t MaxDepthSeen() const PMJOIN_EXCLUDES(mu_);

 private:
  /// Folds the current depth into the high-water mark; call after every
  /// push, with the queue mutex held.
  void NoteDepthLocked() PMJOIN_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_{lock_rank::kQueryQueue, "QueryQueue::mu_"};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<QueuedQuery> entries_ PMJOIN_GUARDED_BY(mu_);
  size_t max_depth_seen_ PMJOIN_GUARDED_BY(mu_) = 0;
  bool closed_ PMJOIN_GUARDED_BY(mu_) = false;
};

}  // namespace server
}  // namespace pmjoin

#endif  // PMJOIN_SERVER_ADMISSION_H_
