#include "obs/span.h"

#include <utility>

#include "io/storage_backend.h"
#include "obs/clock.h"

namespace pmjoin {
namespace obs {

namespace {

// Per-thread stack of the names of currently open spans; indexes nesting
// depth and supplies the "parent/child" path prefix. Entries are the static
// string literals of still-live enclosing spans.
thread_local std::vector<const char*> tls_span_stack;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::StartSession(StorageBackend* disk) {
  MutexLock lock(&mu_);
  events_.clear();
  disk_ = disk;
  session_thread_ = std::this_thread::get_id();
  session_start_io_ = disk != nullptr ? disk->stats() : IoStats();
  session_end_io_ = session_start_io_;
  session_active_ = true;
  session_ended_ = false;
  MetricsRegistry::Get().ResetValues();
  internal::g_obs_enabled.store(true, std::memory_order_release);
}

void Tracer::StopSession() {
  MutexLock lock(&mu_);
  internal::g_obs_enabled.store(false, std::memory_order_release);
  if (!session_active_) return;
  session_active_ = false;
  session_ended_ = true;
  if (disk_ != nullptr) session_end_io_ = disk_->stats();
}

IoStats Tracer::SessionIo() const {
  MutexLock lock(&mu_);
  if (disk_ == nullptr) return IoStats();
  const IoStats end = session_active_ ? disk_->stats() : session_end_io_;
  return end.Delta(session_start_io_);
}

std::vector<TraceEvent> Tracer::TakeEvents() {
  MutexLock lock(&mu_);
  return std::exchange(events_, {});
}

bool Tracer::ArmSpan(bool* capture_io, IoStats* io_start) {
  MutexLock lock(&mu_);
  if (!session_active_) return false;
  *capture_io =
      disk_ != nullptr && std::this_thread::get_id() == session_thread_;
  if (*capture_io) *io_start = disk_->stats();
  return true;
}

void Tracer::FinishSpan(TraceEvent event, bool capture_io,
                        const IoStats& io_start) {
  MutexLock lock(&mu_);
  if (!session_active_) return;  // session ended mid-span: drop the event
  if (capture_io) {
    event.has_io = true;
    event.io = disk_->stats().Delta(io_start);
  }
  events_.push_back(std::move(event));
}

std::vector<const char*> OpenSpanNames() { return tls_span_stack; }

ScopedSpanParents::ScopedSpanParents(std::vector<const char*> parents)
    : saved_(std::exchange(tls_span_stack, std::move(parents))) {}

ScopedSpanParents::~ScopedSpanParents() {
  tls_span_stack = std::move(saved_);
}

void Span::Begin(const char* name, const OpCounters* ops, uint64_t arg) {
  if (!Tracer::Get().ArmSpan(&capture_io_, &io_start_)) return;
  armed_ = true;
  name_ = name;
  ops_ = ops;
  arg_ = arg;
  if (ops_ != nullptr) ops_start_ = *ops_;
  depth_ = static_cast<uint32_t>(tls_span_stack.size());
  tls_span_stack.push_back(name);
  start_ns_ = MonotonicNanos();
}

void Span::End() {
  const int64_t end_ns = MonotonicNanos();
  // RAII guarantees the stack top is this span's own name.
  tls_span_stack.pop_back();

  TraceEvent event;
  event.name = name_;
  event.path.reserve(64);
  for (const char* segment : tls_span_stack) {
    event.path += segment;
    event.path += '/';
  }
  event.path += name_;
  event.tid = ThreadIndex();
  event.depth = depth_;
  event.start_ns = start_ns_;
  event.end_ns = end_ns;
  event.arg = arg_;
  if (ops_ != nullptr) {
    event.has_ops = true;
    event.ops = ops_->Delta(ops_start_);
  }
  Tracer::Get().FinishSpan(std::move(event), capture_io_, io_start_);
}

}  // namespace obs
}  // namespace pmjoin
