#include "common/pair_sink.h"

#include <algorithm>

namespace pmjoin {

std::vector<uint64_t> SemiJoinSink::Sorted() const {
  std::vector<uint64_t> out(left_ids_.begin(), left_ids_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> CollectingSink::Sorted() const {
  std::vector<std::pair<uint64_t, uint64_t>> out = pairs_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ShardedPairSink::ShardedPairSink(size_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      shards_(new PaddedShard[num_shards_]) {}

void ShardedPairSink::Drain(PairSink* out) {
  for (size_t i = 0; i < num_shards_; ++i) {
    auto& pairs = shards_[i].shard.pairs_;
    for (const auto& [r, s] : pairs) out->OnPair(r, s);
    pairs.clear();
  }
}

}  // namespace pmjoin
