#include "common/pair_sink.h"

#include <gtest/gtest.h>

namespace pmjoin {
namespace {

TEST(CountingSinkTest, Counts) {
  CountingSink sink;
  sink.OnPair(1, 2);
  sink.OnPair(1, 3);
  EXPECT_EQ(sink.count(), 2u);
}

TEST(CollectingSinkTest, SortedDeduplicates) {
  CollectingSink sink;
  sink.OnPair(3, 4);
  sink.OnPair(1, 2);
  sink.OnPair(3, 4);
  EXPECT_EQ(sink.pairs().size(), 3u);
  const auto sorted = sink.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  const std::pair<uint64_t, uint64_t> first{1, 2}, second{3, 4};
  EXPECT_EQ(sorted[0], first);
  EXPECT_EQ(sorted[1], second);
}

TEST(SemiJoinSinkTest, KeepsDistinctLeftIds) {
  SemiJoinSink sink;
  sink.OnPair(7, 1);
  sink.OnPair(7, 2);
  sink.OnPair(3, 9);
  EXPECT_EQ(sink.left_ids().size(), 2u);
  EXPECT_EQ(sink.Sorted(), (std::vector<uint64_t>{3, 7}));
}

TEST(SemiJoinSinkTest, EmptyIsEmpty) {
  SemiJoinSink sink;
  EXPECT_TRUE(sink.Sorted().empty());
}

TEST(ShardedPairSinkTest, DrainPreservesShardOrder) {
  ShardedPairSink sharded(3);
  sharded.shard(1)->OnPair(10, 11);
  sharded.shard(0)->OnPair(1, 2);
  sharded.shard(0)->OnPair(3, 4);
  sharded.shard(2)->OnPair(20, 21);

  CollectingSink out;
  sharded.Drain(&out);
  const std::vector<std::pair<uint64_t, uint64_t>> expected{
      {1, 2}, {3, 4}, {10, 11}, {20, 21}};
  EXPECT_EQ(out.pairs(), expected);
  // Drain clears the buffers for reuse on the next cluster.
  CountingSink again;
  sharded.Drain(&again);
  EXPECT_EQ(again.count(), 0u);
}

TEST(ShardedPairSinkTest, ZeroShardsClampedToOne) {
  ShardedPairSink sharded(0);
  EXPECT_EQ(sharded.num_shards(), 1u);
  sharded.shard(0)->OnPair(1, 1);
  CountingSink out;
  sharded.Drain(&out);
  EXPECT_EQ(out.count(), 1u);
}

}  // namespace
}  // namespace pmjoin
