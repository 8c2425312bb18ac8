#include "index/rstar_tree.h"

#include <cassert>
#include <unordered_set>

#include "common/check.h"
#include "index/str_bulk_load.h"

namespace pmjoin {

RStarTree::RStarTree(size_t dims) : dims_(dims) {
  nodes_.emplace_back(dims_, /*level_in=*/0);
}

RStarTree RStarTree::BulkLoadStr(size_t dims,
                                 std::vector<Entry> leaf_entries,
                                 Options options) {
  // A fanout of 1 would never shrink a level.
  assert(options.max_entries >= 2);
  RStarTree tree(dims);
  tree.options_ = options;
  if (leaf_entries.empty()) return tree;
  tree.nodes_.clear();
  tree.size_ = leaf_entries.size();

  // Pack the current level's entries into nodes, then iterate upward.
  std::vector<Entry> level_entries = std::move(leaf_entries);
  for (uint32_t level = 0;; ++level) {
    std::vector<Mbr> boxes;
    boxes.reserve(level_entries.size());
    for (const Entry& e : level_entries) boxes.push_back(e.mbr);
    std::vector<std::vector<uint32_t>> groups =
        StrPack(boxes, options.max_entries);

    std::vector<Entry> next;
    next.reserve(groups.size());
    for (const std::vector<uint32_t>& group : groups) {
      Node& n = tree.nodes_.emplace_back(dims, level);
      n.entries.reserve(group.size());
      for (uint32_t i : group) {
        n.entries.push_back(level_entries[i]);
        n.mbr.Expand(level_entries[i].mbr);
      }
      next.push_back(
          Entry{n.mbr, static_cast<uint32_t>(tree.nodes_.size() - 1)});
    }
    if (next.size() == 1) {
      tree.root_ = next[0].id;
      break;
    }
    level_entries = std::move(next);
  }
  PMJOIN_DCHECK_OK(tree.ValidateInvariants());
  return tree;
}

void RStarTree::AttachFile(StorageBackend* disk, std::string_view name) {
  file_id_ = disk->CreateFile(name, static_cast<uint32_t>(nodes_.size()));
}

Status RStarTree::ValidateInvariants() const {
  if (empty()) return Status::OK();
  std::unordered_set<uint32_t> seen_data;
  std::vector<std::pair<uint32_t, uint32_t>> stack{{root_, nodes_[root_].level}};
  while (!stack.empty()) {
    const auto [id, expected_level] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (n.level != expected_level)
      return Status::Corruption("non-uniform level structure");
    if (n.entries.empty())
      return Status::Corruption("empty node");
    if (n.entries.size() > options_.max_entries)
      return Status::Corruption("node over-full");
    Mbr cover(dims_);
    for (const Entry& e : n.entries) cover.Expand(e.mbr);
    if (!(cover == n.mbr))
      return Status::Corruption("node MBR does not match children");
    for (const Entry& e : n.entries) {
      if (n.IsLeaf()) {
        if (!seen_data.insert(e.id).second)
          return Status::Corruption("data id reachable more than once");
      } else {
        if (!(nodes_[e.id].mbr == e.mbr))
          return Status::Corruption("entry MBR does not match child node");
        stack.emplace_back(e.id, n.level - 1);
      }
    }
  }
  if (seen_data.size() != size_)
    return Status::Corruption("leaf entry count does not match size");
  return Status::OK();
}

}  // namespace pmjoin
