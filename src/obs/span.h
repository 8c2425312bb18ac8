#ifndef PMJOIN_OBS_SPAN_H_
#define PMJOIN_OBS_SPAN_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/op_counters.h"
#include "common/sync.h"
#include "io/io_stats.h"
#include "obs/metrics.h"

namespace pmjoin {

class StorageBackend;

namespace obs {

// One completed span occurrence. Nesting is encoded in `path`
// ("join/execute/cluster") and `depth`; `tid` is the obs::ThreadIndex() of
// the recording thread and becomes the Chrome-trace track.
struct TraceEvent {
  static constexpr uint64_t kNoArg = ~uint64_t{0};

  std::string path;
  const char* name = nullptr;  // static-lifetime leaf name
  uint32_t tid = 0;
  uint32_t depth = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t arg = kNoArg;  // optional operand (e.g. cluster index)
  // Modeled-I/O delta over the span. Captured only on the session thread —
  // by design all disk traffic happens there (the executor pins on the
  // calling thread only), so worker-track events are timing/ops-only and
  // the attribution ledger stays race-free and exact.
  bool has_io = false;
  IoStats io;
  bool has_ops = false;
  OpCounters ops;
};

// Process-global trace collector. A session brackets one observed run:
// StartSession clears prior events, resets metric values, snapshots the
// disk's IoStats, and flips the global enabled flag that arms Span and the
// PMJOIN_METRIC_* macros. Spans opened while no session is active cost one
// relaxed load and record nothing.
//
// Hard invariant: observability never changes join results. The tracer only
// ever *reads* IoStats/OpCounters, and every read is either on the session
// thread or of span-local state.
class Tracer {
 public:
  static Tracer& Get();

  // `disk` may be null (timing/ops-only session). Spans must not straddle
  // session boundaries: start before the observed run, stop after it.
  void StartSession(StorageBackend* disk) PMJOIN_EXCLUDES(mu_);
  void StopSession() PMJOIN_EXCLUDES(mu_);
  bool active() const { return ObsEnabled(); }

  // IoStats accumulated since StartSession (through StopSession once
  // stopped). Zero when the session had no disk.
  IoStats SessionIo() const PMJOIN_EXCLUDES(mu_);

  // Completed events, oldest first. Call after StopSession.
  std::vector<TraceEvent> TakeEvents() PMJOIN_EXCLUDES(mu_);

 private:
  friend class Span;
  Tracer() = default;

  // Span begin: returns false when no session is active. Fills *capture_io
  // (true iff the caller runs on the session thread and the session has a
  // disk) and, when capturing, *io_start with the disk's current stats.
  bool ArmSpan(bool* capture_io, IoStats* io_start) PMJOIN_EXCLUDES(mu_);
  // Span end: completes the io delta when captured and appends the event.
  // Drops the event if the session ended while the span was open.
  void FinishSpan(TraceEvent event, bool capture_io, const IoStats& io_start)
      PMJOIN_EXCLUDES(mu_);

  mutable Mutex mu_{lock_rank::kTracer, "obs::Tracer::mu_"};
  StorageBackend* disk_ PMJOIN_GUARDED_BY(mu_) = nullptr;
  std::thread::id session_thread_ PMJOIN_GUARDED_BY(mu_);
  IoStats session_start_io_ PMJOIN_GUARDED_BY(mu_);
  IoStats session_end_io_ PMJOIN_GUARDED_BY(mu_);
  bool session_active_ PMJOIN_GUARDED_BY(mu_) = false;
  bool session_ended_ PMJOIN_GUARDED_BY(mu_) = false;
  std::vector<TraceEvent> events_ PMJOIN_GUARDED_BY(mu_);
};

// RAII phase span. Construction outside an active session is a single
// relaxed atomic load. Inside a session it snapshots wall-clock, the
// optional OpCounters, and (session thread only) IoStats; destruction
// records the deltas as one TraceEvent. Spans must be stack-nested per
// thread — guaranteed by RAII as long as instances live on the stack.
class Span {
 public:
  explicit Span(const char* name, const OpCounters* ops = nullptr,
                uint64_t arg = TraceEvent::kNoArg) {
    if (ObsEnabled()) Begin(name, ops, arg);
  }
  ~Span() {
    if (armed_) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(const char* name, const OpCounters* ops, uint64_t arg);
  void End();

  bool armed_ = false;
  bool capture_io_ = false;
  const char* name_ = nullptr;
  const OpCounters* ops_ = nullptr;
  uint64_t arg_ = TraceEvent::kNoArg;
  uint32_t depth_ = 0;
  int64_t start_ns_ = 0;
  IoStats io_start_;
  OpCounters ops_start_;
};

// Names of the spans the calling thread has open inside a session,
// outermost first.
std::vector<const char*> OpenSpanNames();

// For its lifetime, spans the calling thread opens nest under `parents` (a
// copy of another thread's OpenSpanNames()): a pool worker adopts its
// coordinator's open spans, so its events get the path and depth they would
// have had on the coordinator. Construct and destroy it around the spans
// it should parent, on the stack like a Span.
class ScopedSpanParents {
 public:
  explicit ScopedSpanParents(std::vector<const char*> parents);
  ~ScopedSpanParents();

  ScopedSpanParents(const ScopedSpanParents&) = delete;
  ScopedSpanParents& operator=(const ScopedSpanParents&) = delete;

 private:
  std::vector<const char*> saved_;  // the thread's own stack, restored
};

}  // namespace obs
}  // namespace pmjoin

// Span macros. `name` must be a string literal; it becomes the trace-event
// name and one path segment ('/' is reserved as the nesting separator).
// `ops` is a `const OpCounters*` (may be null) whose delta over the span is
// attached to the event; `arg` is a uint64 operand shown in the trace.
#define PMJOIN_OBS_CONCAT_INNER(a, b) a##b
#define PMJOIN_OBS_CONCAT(a, b) PMJOIN_OBS_CONCAT_INNER(a, b)

#define PMJOIN_SPAN(name) \
  ::pmjoin::obs::Span PMJOIN_OBS_CONCAT(pmjoin_span_, __LINE__)(name)
#define PMJOIN_SPAN_OPS(name, ops) \
  ::pmjoin::obs::Span PMJOIN_OBS_CONCAT(pmjoin_span_, __LINE__)(name, ops)
#define PMJOIN_SPAN_ARG(name, arg)                                  \
  ::pmjoin::obs::Span PMJOIN_OBS_CONCAT(pmjoin_span_, __LINE__)(    \
      name, nullptr, arg)
#define PMJOIN_SPAN_OPS_ARG(name, ops, arg) \
  ::pmjoin::obs::Span PMJOIN_OBS_CONCAT(pmjoin_span_, __LINE__)(name, ops, arg)

#endif  // PMJOIN_OBS_SPAN_H_
