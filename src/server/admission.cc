#include "server/admission.h"

#include <utility>

namespace pmjoin {
namespace server {

Status AdmissionController::Admit(JobSpec* job) const {
  Result<DatasetSpec> r = DatasetSpec::Parse(job->r);
  if (!r.ok()) return r.status();
  Result<DatasetSpec> s = DatasetSpec::Parse(job->s);
  if (!s.ok()) return s.status();
  if (r->dims != s->dims)
    return Status::InvalidArgument("dimension mismatch: " + job->r +
                                   " vs " + job->s);
  if (job->k > 0) {
    // kNN job: the engine field is inert, but a nonzero eps signals a
    // confused submission — reject rather than silently drop it.
    if (job->eps != 0.0)
      return Status::InvalidArgument("kNN jobs take \"k\", not \"eps\"");
  } else {
    if (job->eps <= 0.0)
      return Status::InvalidArgument("eps must be > 0");
    switch (job->engine) {
      case Algorithm::kNlj:
      case Algorithm::kPmNlj:
      case Algorithm::kRandomSc:
      case Algorithm::kSc:
      case Algorithm::kCc:
        break;
      default:
        return Status::InvalidArgument(
            "engine not served (matrix family only): " +
            AlgorithmName(job->engine));
    }
  }
  if (job->buffer_pages == 0)
    job->buffer_pages = options_.default_buffer_pages;
  if (job->buffer_pages > options_.pool_pages)
    return Status::InvalidArgument(
        "buffer_pages " + std::to_string(job->buffer_pages) +
        " exceeds the shared pool (" + std::to_string(options_.pool_pages) +
        " pages)");
  if (job->num_threads == 0) job->num_threads = options_.default_threads;
  if (job->num_threads > options_.max_threads)
    return Status::InvalidArgument(
        "threads " + std::to_string(job->num_threads) + " exceeds limit " +
        std::to_string(options_.max_threads));
  return Status::OK();
}

QueryQueue::QueryQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void QueryQueue::NoteDepthLocked() {
  if (entries_.size() > max_depth_seen_) max_depth_seen_ = entries_.size();
}

Status QueryQueue::TryPush(QueuedQuery query) {
  {
    MutexLock lock(&mu_);
    if (closed_) return Status::InvalidArgument("queue closed");
    if (entries_.size() >= capacity_)
      return Status::BufferFull("query queue at capacity (" +
                                std::to_string(capacity_) + ")");
    entries_.push_back(std::move(query));
    NoteDepthLocked();
  }
  not_empty_.NotifyOne();
  return Status::OK();
}

Status QueryQueue::PushBlocking(QueuedQuery query) {
  {
    MutexLock lock(&mu_);
    while (!closed_ && entries_.size() >= capacity_) not_full_.Wait(&mu_);
    if (closed_) return Status::InvalidArgument("queue closed");
    entries_.push_back(std::move(query));
    NoteDepthLocked();
  }
  not_empty_.NotifyOne();
  return Status::OK();
}

std::optional<QueuedQuery> QueryQueue::Pop() {
  std::optional<QueuedQuery> out;
  {
    MutexLock lock(&mu_);
    while (!closed_ && entries_.empty()) not_empty_.Wait(&mu_);
    if (entries_.empty()) return out;  // closed and drained
    out = std::move(entries_.front());
    entries_.pop_front();
  }
  not_full_.NotifyOne();
  return out;
}

void QueryQueue::Close() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
}

size_t QueryQueue::Depth() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

size_t QueryQueue::MaxDepthSeen() const {
  MutexLock lock(&mu_);
  return max_depth_seen_;
}

}  // namespace server
}  // namespace pmjoin
