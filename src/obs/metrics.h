#ifndef PMJOIN_OBS_METRICS_H_
#define PMJOIN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace pmjoin {
namespace obs {

namespace internal {
// Set by Tracer::StartSession/StopSession (span.cc). Lives here so the
// metric macros below can gate on it without pulling in span.h.
extern std::atomic<bool> g_obs_enabled;
}  // namespace internal

// True between Tracer::StartSession and StopSession. Relaxed load: the flag
// is only a sampling gate, never a synchronization point — all obs state it
// guards is either sharded per thread or locked.
inline bool ObsEnabled() {
  return internal::g_obs_enabled.load(std::memory_order_relaxed);
}

// Stable small index for the calling thread, assigned on first use. Metric
// cell sharding and trace track ids both derive from it; the session
// (coordinator) thread is normally index 0 and executor workers follow in
// spawn order.
uint32_t ThreadIndex();

// Monotonic counter with cache-line-padded thread-sharded cells, merged on
// read like ShardedOpCounters. Add() is wait-free per thread.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    cells_[ThreadIndex() & (kCells - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Total() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Counter() = default;

  static constexpr uint32_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kCells];
};

// Last-write-wins instantaneous value (e.g. configured thread count).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<int64_t> value_{0};
};

// Power-of-two histogram: bucket b counts values v with bit_width(v) == b,
// i.e. v in [2^(b-1), 2^b); bucket 0 counts zeros. Sharded like Counter but
// with fewer cells — histograms are recorded per batch, not per record.
class Histogram {
 public:
  static constexpr uint32_t kBuckets = 65;  // bit widths 0..64

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);
  uint64_t TotalCount() const;
  std::array<uint64_t, kBuckets> BucketCounts() const;
  void Reset();

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  static constexpr uint32_t kCells = 4;
  struct alignas(64) Cell {
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  Cell cells_[kCells];
};

// Process-global registry of named metrics. Handles are created on first
// lookup and live for the process lifetime, so call sites may cache the
// returned pointer (the PMJOIN_METRIC_* macros do, in a function-local
// static). ResetValues() zeroes every value but keeps handles valid; the
// tracer calls it at session start so a report only covers its session.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* counter(std::string_view name) PMJOIN_EXCLUDES(mu_);
  Gauge* gauge(std::string_view name) PMJOIN_EXCLUDES(mu_);
  Histogram* histogram(std::string_view name) PMJOIN_EXCLUDES(mu_);

  void ResetValues() PMJOIN_EXCLUDES(mu_);

  struct MetricRow {
    std::string name;
    std::string type;  // "counter" | "gauge" | "histogram"
    int64_t value;     // counter total / gauge value / histogram count
    // Histogram only: (bit width, count) for non-empty buckets.
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
  };
  // All registered metrics sorted by name, including zero-valued ones.
  std::vector<MetricRow> Snapshot() const PMJOIN_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  // Guards the handle maps only; the metric *values* are thread-sharded
  // atomics mutated without this lock. Highest rank in the hierarchy:
  // first-touch handle lookups happen under the tracer and cache locks.
  mutable Mutex mu_{lock_rank::kMetricsRegistry, "MetricsRegistry::mu_"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      PMJOIN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      PMJOIN_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      PMJOIN_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace pmjoin

// Instrumentation macros. `name` must be a string literal (the handle is
// cached in a function-local static on first enabled hit). Each costs one
// relaxed atomic load + branch when no session is active.
#define PMJOIN_METRIC_COUNT(name, delta)                                  \
  do {                                                                    \
    if (::pmjoin::obs::ObsEnabled()) {                                    \
      static ::pmjoin::obs::Counter* pmjoin_metric_counter =              \
          ::pmjoin::obs::MetricsRegistry::Get().counter(name);            \
      pmjoin_metric_counter->Add(delta);                                  \
    }                                                                     \
  } while (false)

#define PMJOIN_METRIC_GAUGE_SET(name, value)                              \
  do {                                                                    \
    if (::pmjoin::obs::ObsEnabled()) {                                    \
      static ::pmjoin::obs::Gauge* pmjoin_metric_gauge =                  \
          ::pmjoin::obs::MetricsRegistry::Get().gauge(name);              \
      pmjoin_metric_gauge->Set(value);                                    \
    }                                                                     \
  } while (false)

#define PMJOIN_METRIC_RECORD(name, value)                                 \
  do {                                                                    \
    if (::pmjoin::obs::ObsEnabled()) {                                    \
      static ::pmjoin::obs::Histogram* pmjoin_metric_histogram =          \
          ::pmjoin::obs::MetricsRegistry::Get().histogram(name);          \
      pmjoin_metric_histogram->Record(value);                             \
    }                                                                     \
  } while (false)

#endif  // PMJOIN_OBS_METRICS_H_
