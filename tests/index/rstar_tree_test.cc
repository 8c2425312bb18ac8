#include "index/rstar_tree.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/simulated_disk.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomBox;

RStarTree::Options SmallNodes() {
  RStarTree::Options options;
  options.max_entries = 8;
  return options;
}

/// Every leaf entry reachable from the root, in depth-first order.
std::vector<RStarTree::Entry> LeafEntries(const RStarTree& tree) {
  std::vector<RStarTree::Entry> out;
  if (tree.empty()) return out;
  std::vector<uint32_t> stack{tree.root()};
  while (!stack.empty()) {
    const RStarTree::Node& n = tree.node(stack.back());
    stack.pop_back();
    for (const RStarTree::Entry& e : n.entries) {
      if (n.IsLeaf()) {
        out.push_back(e);
      } else {
        stack.push_back(e.id);
      }
    }
  }
  return out;
}

std::vector<uint32_t> SortedLeafIds(const RStarTree& tree) {
  std::vector<uint32_t> ids;
  for (const RStarTree::Entry& e : LeafEntries(tree)) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree(2);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_TRUE(LeafEntries(tree).empty());
}

TEST(RStarTreeTest, BulkLoadInvariantsAndSearch) {
  // A full walk of the leaves finds every input entry, with its box
  // unchanged, exactly once.
  Rng rng(9);
  std::vector<RStarTree::Entry> entries;
  std::vector<Mbr> boxes;
  for (uint32_t i = 0; i < 1000; ++i) {
    boxes.push_back(RandomBox(&rng, 2, 0.02));
    entries.push_back(RStarTree::Entry{boxes.back(), i});
  }
  RStarTree tree = RStarTree::BulkLoadStr(2, entries, SmallNodes());
  EXPECT_EQ(tree.size(), 1000u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  const std::vector<RStarTree::Entry> leaves = LeafEntries(tree);
  ASSERT_EQ(leaves.size(), boxes.size());
  for (const RStarTree::Entry& e : leaves) {
    ASSERT_LT(e.id, boxes.size());
    EXPECT_TRUE(e.mbr == boxes[e.id]) << "leaf entry " << e.id;
  }
  EXPECT_EQ(SortedLeafIds(tree), Iota(1000));
}

TEST(RStarTreeTest, BulkLoadReachesAllIds) {
  Rng rng(11);
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    entries.push_back(RStarTree::Entry{RandomBox(&rng, 3, 0.1), i});
  }
  RStarTree tree = RStarTree::BulkLoadStr(3, entries);
  EXPECT_EQ(SortedLeafIds(tree), Iota(500));
}

TEST(RStarTreeTest, BulkLoadHeightLogarithmic) {
  Rng rng(13);
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < 5000; ++i) {
    entries.push_back(RStarTree::Entry{RandomBox(&rng, 2, 0.01), i});
  }
  RStarTree::Options options;  // Fanout 64.
  RStarTree tree = RStarTree::BulkLoadStr(2, entries, options);
  // 5000 / 64 = 79 leaves, / 64 → 2 level-1 nodes, → height 3.
  EXPECT_LE(tree.height(), 3u);
}

TEST(RStarTreeTest, DuplicatePointsHandled) {
  const Mbr box = Mbr::FromBounds({0.5f, 0.5f}, {0.5f, 0.5f});
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < 100; ++i) entries.push_back({box, i});
  RStarTree tree = RStarTree::BulkLoadStr(2, entries, SmallNodes());
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(SortedLeafIds(tree), Iota(100));
}

TEST(RStarTreeTest, AttachFileSizesNodeFile) {
  Rng rng(17);
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < 300; ++i) {
    entries.push_back(RStarTree::Entry{RandomBox(&rng, 2), i});
  }
  RStarTree tree = RStarTree::BulkLoadStr(2, entries, SmallNodes());
  SimulatedDisk disk;
  tree.AttachFile(&disk, "tree.idx");
  ASSERT_TRUE(tree.file_id().has_value());
  EXPECT_EQ(disk.file(*tree.file_id()).num_pages, tree.NumNodes());
}

struct BulkLoadCase {
  size_t dims;
  uint32_t n;
  uint32_t fanout;
};

class RStarTreeBulkLoadTest : public ::testing::TestWithParam<BulkLoadCase> {
};

TEST_P(RStarTreeBulkLoadTest, AuditPassesAndReachesEveryIdOnce) {
  // STR fills every node but the last of a slab, so these sizes leave
  // short nodes at each level; the audit must accept them.
  const BulkLoadCase& c = GetParam();
  Rng rng(31 + c.n);
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < c.n; ++i) {
    entries.push_back(RStarTree::Entry{RandomBox(&rng, c.dims, 0.01), i});
  }
  RStarTree::Options options;
  options.max_entries = c.fanout;
  const RStarTree tree =
      RStarTree::BulkLoadStr(c.dims, std::move(entries), options);
  const Status audit = tree.ValidateInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_EQ(SortedLeafIds(tree), Iota(c.n));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RStarTreeBulkLoadTest,
    ::testing::Values(BulkLoadCase{1, 65, 64}, BulkLoadCase{1, 129, 64},
                      BulkLoadCase{1, 200, 64}, BulkLoadCase{1, 4097, 64},
                      BulkLoadCase{2, 129, 64}, BulkLoadCase{2, 4097, 64},
                      BulkLoadCase{3, 4097, 64}, BulkLoadCase{2, 1000, 8}),
    [](const ::testing::TestParamInfo<BulkLoadCase>& info) {
      const BulkLoadCase& c = info.param;
      // snprintf, not a std::string + chain: GCC 12 at -O3 reports a
      // false-positive -Wrestrict inside the chain's inlined memcpy.
      char name[64];
      std::snprintf(name, sizeof(name), "d%zu_n%u_m%u", c.dims, c.n,
                    c.fanout);
      return std::string(name);
    });

TEST(RStarTreeAuditDeathTest, RepeatedLeafIdFailsTheAudit) {
  Rng rng(37);
  std::vector<RStarTree::Entry> entries;
  for (uint32_t i = 0; i < 100; ++i) {
    entries.push_back(RStarTree::Entry{RandomBox(&rng, 2, 0.05), i});
  }
  entries[70].id = entries[20].id;
#ifdef PMJOIN_PARANOID
  // BulkLoadStr audits its own result in paranoid builds.
  EXPECT_DEATH(RStarTree::BulkLoadStr(2, entries, SmallNodes()),
               "reachable more than once");
#else
  const Status audit =
      RStarTree::BulkLoadStr(2, entries, SmallNodes()).ValidateInvariants();
  EXPECT_TRUE(audit.IsCorruption()) << audit.ToString();
  EXPECT_NE(audit.message().find("reachable more than once"),
            std::string::npos);
#endif  // PMJOIN_PARANOID
}

}  // namespace
}  // namespace pmjoin
