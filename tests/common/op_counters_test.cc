#include "common/op_counters.h"

#include <gtest/gtest.h>

#include "common/cost_model.h"

namespace pmjoin {
namespace {

TEST(OpCountersTest, DefaultZero) {
  OpCounters ops;
  EXPECT_EQ(ops.distance_terms, 0u);
  EXPECT_EQ(ops.filter_checks, 0u);
  EXPECT_EQ(ops.edit_cells, 0u);
  EXPECT_EQ(ops.mbr_tests, 0u);
  EXPECT_EQ(ops.cluster_ops, 0u);
  EXPECT_EQ(ops.result_pairs, 0u);
}

TEST(OpCountersTest, Accumulate) {
  OpCounters a, b;
  a.distance_terms = 10;
  a.edit_cells = 3;
  b.distance_terms = 5;
  b.result_pairs = 2;
  a += b;
  EXPECT_EQ(a.distance_terms, 15u);
  EXPECT_EQ(a.edit_cells, 3u);
  EXPECT_EQ(a.result_pairs, 2u);
}

TEST(OpCountersTest, Delta) {
  OpCounters start;
  start.mbr_tests = 7;
  OpCounters now = start;
  now.mbr_tests = 12;
  now.cluster_ops = 4;
  const OpCounters d = now.Delta(start);
  EXPECT_EQ(d.mbr_tests, 5u);
  EXPECT_EQ(d.cluster_ops, 4u);
}

TEST(OpCountersTest, ResetClearsAll) {
  OpCounters ops;
  ops.filter_checks = 99;
  ops.Reset();
  EXPECT_EQ(ops.filter_checks, 0u);
}

TEST(OpCountersTest, ToStringMentionsFields) {
  OpCounters ops;
  ops.distance_terms = 42;
  EXPECT_NE(ops.ToString().find("dist_terms=42"), std::string::npos);
}

TEST(ShardedOpCountersTest, TotalSumsShards) {
  ShardedOpCounters sharded(3);
  sharded.shard(0)->distance_terms = 10;
  sharded.shard(1)->distance_terms = 5;
  sharded.shard(1)->result_pairs = 2;
  sharded.shard(2)->mbr_tests = 7;
  OpCounters total;
  sharded.DrainInto(&total);
  EXPECT_EQ(total.distance_terms, 15u);
  EXPECT_EQ(total.result_pairs, 2u);
  EXPECT_EQ(total.mbr_tests, 7u);
}

TEST(ShardedOpCountersTest, DrainIntoAggregatesAndResets) {
  ShardedOpCounters sharded(2);
  sharded.shard(0)->edit_cells = 4;
  sharded.shard(1)->edit_cells = 6;
  OpCounters total;
  total.edit_cells = 1;
  sharded.DrainInto(&total);
  EXPECT_EQ(total.edit_cells, 11u);
  OpCounters after;
  sharded.DrainInto(&after);
  EXPECT_EQ(after, OpCounters());
  // Null target discards (the executor's ops == nullptr case).
  sharded.shard(0)->edit_cells = 3;
  sharded.DrainInto(nullptr);
  sharded.DrainInto(&after);
  EXPECT_EQ(after, OpCounters());
}

TEST(ShardedOpCountersTest, AggregationIsPartitionInvariant) {
  // Distributing the same charges across different shard counts must
  // produce the same total — the property the parallel executor's
  // per-thread accounting rests on.
  ShardedOpCounters a(2), b(5);
  for (int i = 0; i < 10; ++i) {
    a.shard(i % 2)->distance_terms += 100 + i;
    b.shard(i % 5)->distance_terms += 100 + i;
  }
  OpCounters total_a, total_b;
  a.DrainInto(&total_a);
  b.DrainInto(&total_b);
  EXPECT_EQ(total_a, total_b);
}

TEST(CpuCostModelTest, SecondsLinearInCounts) {
  CpuCostModel model;
  OpCounters ops;
  ops.distance_terms = 1000;
  const double once = model.Seconds(ops);
  ops.distance_terms = 2000;
  EXPECT_DOUBLE_EQ(model.Seconds(ops), 2.0 * once);
}

TEST(CpuCostModelTest, JoinSecondsExcludesPreprocess) {
  CpuCostModel model;
  OpCounters ops;
  ops.distance_terms = 1000;
  ops.cluster_ops = 500;
  EXPECT_GT(model.Seconds(ops), model.JoinSeconds(ops));
  EXPECT_DOUBLE_EQ(model.JoinSeconds(ops) + model.PreprocessSeconds(ops),
                   model.Seconds(ops));
}

TEST(CpuCostModelTest, PreprocessOnlyCountsClusterOps) {
  CpuCostModel model;
  OpCounters ops;
  ops.distance_terms = 12345;
  EXPECT_DOUBLE_EQ(model.PreprocessSeconds(ops), 0.0);
  ops.cluster_ops = 10;
  EXPECT_GT(model.PreprocessSeconds(ops), 0.0);
}

}  // namespace
}  // namespace pmjoin
