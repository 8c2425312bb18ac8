// Shared pieces of the end-to-end benchmark: pair digests, the in-memory
// span log of the traced replay, per-query outcomes, the metric list the
// benchmark prints, and the brute-force reference joins it checks against.
#ifndef PERFBENCH_BENCH_SUPPORT_H_
#define PERFBENCH_BENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "data/generators.h"
#include "io/io_stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-independent digest of a result-pair set: two sets with equal
/// digests are equal up to a 2^-128 collision chance. Lets every query be
/// checked without keeping its pairs.
struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mix = 0;

  void Add(uint64_t r, uint64_t s) {
    const uint64_t h = Mix(r * 0x9E3779B97F4A7C15ull ^ Mix(s + 0x632BE59BD9B4E019ull));
    ++count;
    sum += h;
    mix ^= Mix(h ^ 0xD6E8FEB86659FD93ull);
  }
  bool operator==(const PairDigest& other) const = default;
  std::string ToString() const;

  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
};

class DigestSink : public pmjoin::PairSink {
 public:
  void OnPair(uint64_t r, uint64_t s) override { digest_.Add(r, s); }
  const PairDigest& digest() const { return digest_; }

 private:
  PairDigest digest_;
};

/// One closed span of the traced replay. `parent` indexes the enclosing
/// span in the same log (-1 for a query root); every span of one query
/// carries that query's id.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t query = 0;
};

/// Spans kept in memory during the replay and written out when it ends.
/// Single-threaded: the replay calls the layers serially.
class SpanLog {
 public:
  void BeginQuery(uint32_t query) { query_ = query; }
  int32_t Open(const char* name);
  void Close(int32_t index) { spans_[index].end_ns = NowNs(); stack_.pop_back(); }
  void Rename(int32_t index, const char* name) { spans_[index].name = name; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Each span's duration minus the time covered by its direct children.
  std::vector<int64_t> SelfNs() const;

  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
  uint32_t query_ = 0;
};

/// RAII span; a null log records nothing.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void Rename(const char* name) {
    if (log_ != nullptr) log_->Rename(index_, name);
  }

 private:
  SpanLog* log_;
  int32_t index_;
};

/// What one query of a stream produced, from either the public entry point
/// (JoinDriver / JoinServer) or the traced layer-by-layer replay.
struct QueryOutcome {
  /// Identifies the query shape; repeats of one key must agree.
  std::string key;
  bool ok = false;
  std::string error;
  PairDigest digest;
  pmjoin::IoStats io;
  pmjoin::OpCounters ops;
  double modeled_s = 0.0;
  double wall_ms = 0.0;
  /// Server rows only.
  double submit_us = 0.0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  bool cache_hit = false;
  bool knn = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order.
class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// ReferenceVectorJoin (L2) with R's rows split across a few threads; the
/// check runs after the timed stream, so the threads cost no measurement.
/// Returns the pairs in R-row order with global ids; a self join keeps
/// i < j like the serial reference.
std::vector<std::pair<uint64_t, uint64_t>> ReferenceVectorPairs(
    const pmjoin::VectorData& r, const pmjoin::VectorData& s, double eps,
    bool self_join);

/// ReferenceKnnJoin (L2) split the same way: row i's neighbours in
/// (distance, id) order. A self join skips only i itself.
std::vector<std::vector<uint64_t>> ReferenceKnnRows(
    const pmjoin::VectorData& r, const pmjoin::VectorData& s, uint32_t k,
    bool self_join);

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double Quantile(std::vector<double> values, double q);

/// JSON string literal with escaping.
std::string JsonString(const std::string& text);

/// Shortest round-trip decimal rendering of a double ("null" if not
/// finite).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_SUPPORT_H_
