#include "io/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "io/disk_scheduler.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pmjoin {

BufferPool::BufferPool(StorageBackend* disk, uint32_t capacity)
    : disk_(disk), capacity_(capacity) {
  assert(disk != nullptr);
  assert(capacity > 0);
}

Status BufferPool::EvictOne() {
  if (lru_.empty())
    return Status::BufferFull("all resident pages are pinned");
  PageId victim = lru_.front();
  lru_.pop_front();
  frames_.erase(victim);
  PMJOIN_METRIC_COUNT("buffer_pool.evictions", 1);
  return Status::OK();
}

Status BufferPool::Ensure(PageId pid, std::vector<PageId>* missed) {
  auto it = frames_.find(pid);
  if (it != frames_.end()) {
    PMJOIN_METRIC_COUNT("buffer_pool.hits", 1);
    ++disk_->mutable_stats().buffer_hits;
    // Refresh LRU position if unpinned.
    Frame& f = it->second;
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.lru_pos = lru_.insert(lru_.end(), pid);
    }
    return Status::OK();
  }
  PMJOIN_METRIC_COUNT("buffer_pool.misses", 1);
  if (frames_.size() >= capacity_) {
    PMJOIN_RETURN_IF_ERROR(EvictOne());
  }
  if (missed != nullptr) {
    missed->push_back(pid);
  } else {
    PMJOIN_RETURN_IF_ERROR(disk_->ReadPage(pid));
  }
  Frame f;
  f.lru_pos = lru_.insert(lru_.end(), pid);
  f.in_lru = true;
  frames_.emplace(pid, f);
  return Status::OK();
}

Status BufferPool::Pin(PageId pid) {
  PMJOIN_RETURN_IF_ERROR(Ensure(pid, nullptr));
  Frame& f = frames_.at(pid);
  if (f.pin_count == 0) {
    ++pinned_count_;
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
  }
  ++f.pin_count;
  return Status::OK();
}

Status BufferPool::Touch(PageId pid) { return Ensure(pid, nullptr); }

void BufferPool::Unpin(PageId pid) {
  auto it = frames_.find(pid);
  assert(it != frames_.end() && "Unpin of non-resident page");
  Frame& f = it->second;
  assert(f.pin_count > 0 && "Unpin of unpinned page");
  --f.pin_count;
  if (f.pin_count == 0) {
    --pinned_count_;
    f.lru_pos = lru_.insert(lru_.end(), pid);
    f.in_lru = true;
  }
}

Status BufferPool::PinBatch(std::span<const PageId> pages) {
  PMJOIN_SPAN_ARG("pin_batch", pages.size());
  // Pin already-resident pages first: a miss admitted later can only evict
  // unpinned frames, so the batch's own resident pages can never be pushed
  // out before they are used (this preserves cross-cluster reuse even when
  // the batch fills the whole pool).
  std::vector<PageId> ordered(pages.begin(), pages.end());
  std::stable_partition(
      ordered.begin(), ordered.end(),
      [this](const PageId& pid) { return frames_.count(pid) > 0; });

  std::vector<PageId> missed;
  missed.reserve(ordered.size());
  // Register residency, collecting misses without charging I/O, so the
  // whole miss set can be read with one seek-optimal schedule.
  size_t done = 0;
  Status st;
  for (const PageId& pid : ordered) {
    st = Ensure(pid, &missed);
    if (!st.ok()) break;
    Frame& f = frames_.at(pid);
    if (f.pin_count == 0) {
      ++pinned_count_;
      if (f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
    }
    ++f.pin_count;
    ++done;
  }
  if (!st.ok()) {
    // Roll back the pins acquired so far.
    for (size_t i = 0; i < done; ++i) Unpin(ordered[i]);
    return st;
  }
  std::vector<PageRun> schedule = BuildSchedule(*disk_, missed);
  st = ExecuteSchedule(disk_, schedule);
  if (!st.ok()) {
    // A physical read failure (e.g. a FileBackend checksum mismatch)
    // arrives after every pin in the batch is held: release them all and
    // drop the missed pages' residency — their payloads were never
    // (completely) read, so leaving them resident would let a later Pin
    // treat a never-read page as a hit.
    for (const PageId& pid : ordered) Unpin(pid);
    for (const PageId& pid : missed) {
      auto it = frames_.find(pid);
      if (it == frames_.end()) continue;
      if (it->second.in_lru) lru_.erase(it->second.lru_pos);
      frames_.erase(it);
    }
  }
  return st;
}

void BufferPool::UnpinBatch(std::span<const PageId> pages) {
  for (const PageId& pid : pages) Unpin(pid);
}

bool BufferPool::Contains(PageId pid) const {
  return frames_.find(pid) != frames_.end();
}

Status BufferPool::ValidateInvariants() const {
  if (frames_.size() > capacity_)
    return Status::Internal("resident pages exceed capacity");
  uint32_t pinned = 0;
  size_t in_lru = 0;
  for (const auto& [pid, frame] : frames_) {
    if (frame.pin_count > 0) {
      ++pinned;
      if (frame.in_lru)
        return Status::Internal("pinned page present in LRU list");
    } else {
      if (!frame.in_lru)
        return Status::Internal("unpinned resident page missing from LRU");
      if (frame.lru_pos == lru_.end() || !(*frame.lru_pos == pid))
        return Status::Internal("LRU back-pointer names the wrong page");
      ++in_lru;
    }
  }
  if (pinned != pinned_count_)
    return Status::Internal("pinned_count does not match per-frame pins");
  if (in_lru != lru_.size())
    return Status::Internal("LRU list size does not match unpinned frames");
  for (const PageId& pid : lru_) {
    auto it = frames_.find(pid);
    if (it == frames_.end())
      return Status::Internal("LRU entry is not resident");
    if (it->second.pin_count != 0)
      return Status::Internal("LRU entry is pinned");
  }
  return Status::OK();
}

Status BufferPool::Clear() {
  if (pinned_count_ > 0)
    return Status::Internal("Clear with pinned pages outstanding");
  frames_.clear();
  lru_.clear();
  return Status::OK();
}

Status BufferPool::CheckQuiescent() const {
  if (pinned_count_ > 0)
    return Status::Internal("pool not quiescent: " +
                            std::to_string(pinned_count_) +
                            " pinned page(s) outstanding");
  return Status::OK();
}

}  // namespace pmjoin
