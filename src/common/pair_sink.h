#ifndef PMJOIN_COMMON_PAIR_SINK_H_
#define PMJOIN_COMMON_PAIR_SINK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

namespace pmjoin {

/// Consumer of join result pairs.
///
/// A result pair is a pair of record identifiers: record indices for vector
/// joins, window start offsets for subsequence joins. Join operators only
/// call `OnPair`; whether pairs are collected, counted, or streamed out is
/// the caller's choice of sink.
class PairSink {
 public:
  virtual ~PairSink() = default;

  /// Called once per result pair (r from the first dataset, s from the
  /// second).
  virtual void OnPair(uint64_t r, uint64_t s) = 0;
};

/// Counts pairs without storing them — the default for benchmarks.
class CountingSink : public PairSink {
 public:
  void OnPair(uint64_t /*r*/, uint64_t /*s*/) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Distance-semijoin adapter (Hjaltason & Samet, §2.2 of the paper): keeps
/// the distinct left-side ids that have at least one partner. Wrap any
/// join with this sink to answer "which hotels have a recreation area
/// within ε" instead of enumerating all pairs.
class SemiJoinSink : public PairSink {
 public:
  void OnPair(uint64_t r, uint64_t /*s*/) override { left_ids_.insert(r); }

  /// The matched left-side ids (unordered).
  const std::unordered_set<uint64_t>& left_ids() const { return left_ids_; }

  /// Sorted view for deterministic comparison.
  std::vector<uint64_t> Sorted() const;

 private:
  std::unordered_set<uint64_t> left_ids_;
};

/// Collects pairs — used by tests to compare operators against the
/// brute-force reference join.
class CollectingSink : public PairSink {
 public:
  void OnPair(uint64_t r, uint64_t s) override {
    pairs_.emplace_back(r, s);
  }

  const std::vector<std::pair<uint64_t, uint64_t>>& pairs() const {
    return pairs_;
  }

  /// Sorted + deduplicated view, for order-insensitive comparison.
  std::vector<std::pair<uint64_t, uint64_t>> Sorted() const;

 private:
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;
};

/// Per-thread result buffers for parallel operators.
///
/// Join workers are handed distinct shards (each shard is itself a
/// `PairSink`), so emission is lock-free; the coordinator then drains the
/// shards into the real downstream sink *in shard order*. When the work is
/// partitioned into contiguous chunks assigned to shards 0..n−1 in order
/// (as the multi-threaded executor does per cluster), the drained emission
/// sequence is exactly the serial one — no sorting needed for
/// reproducibility.
class ShardedPairSink {
 public:
  /// A buffering sink for one worker thread.
  class Shard : public PairSink {
   public:
    void OnPair(uint64_t r, uint64_t s) override {
      pairs_.emplace_back(r, s);
    }

   private:
    friend class ShardedPairSink;
    std::vector<std::pair<uint64_t, uint64_t>> pairs_;
  };

  /// Creates `num_shards` empty shards (at least 1).
  explicit ShardedPairSink(size_t num_shards);

  size_t num_shards() const { return num_shards_; }

  /// Shard `i`; each thread must emit into a distinct shard.
  PairSink* shard(size_t i) { return &shards_[i].shard; }

  /// Forwards every buffered pair to `out` in shard order (shard 0's pairs
  /// in emission order, then shard 1's, ...) and clears the buffers.
  void Drain(PairSink* out);

 private:
  /// Padded so concurrent emission into adjacent shards does not contend
  /// on one cache line.
  struct alignas(64) PaddedShard {
    Shard shard;
  };

  size_t num_shards_;
  std::unique_ptr<PaddedShard[]> shards_;
};

}  // namespace pmjoin

#endif  // PMJOIN_COMMON_PAIR_SINK_H_
