#ifndef PMJOIN_INDEX_RSTAR_TREE_H_
#define PMJOIN_INDEX_RSTAR_TREE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geom/mbr.h"
#include "io/storage_backend.h"

namespace pmjoin {

/// STR-packed R-tree over data pages.
///
/// This is the index structure the paper assumes for point and spatial data
/// (Table 1). In pmjoin the tree indexes *data pages*: each leaf entry is
/// one page of the dataset with its page MBR. Every tree is built once by
/// Sort-Tile-Recursive packing (`BulkLoadStr`) and from then on only
/// walked: the hierarchical prediction-matrix construction (Fig. 1) and
/// the BFRJ baseline both traverse it top-down, and the tree's own nodes
/// can be attached to a disk file so that node accesses are charged I/O
/// (one node per page).
class RStarTree {
 public:
  /// A node slot: bounding box plus either a child node id (internal) or a
  /// caller-defined data id (leaf).
  struct Entry {
    Mbr mbr;
    uint32_t id = 0;
  };

  struct Node {
    Mbr mbr;
    std::vector<Entry> entries;
    /// 0 at the leaf level, increasing toward the root.
    uint32_t level = 0;
    bool IsLeaf() const { return level == 0; }

    explicit Node(size_t dims, uint32_t level_in = 0)
        : mbr(dims), level(level_in) {}
  };

  struct Options {
    /// Maximum entries per node (fanout), M.
    uint32_t max_entries = 64;
  };

  /// An empty tree over `dims`-dimensional boxes (one empty root leaf).
  explicit RStarTree(size_t dims);

  /// Bulk loads a tree from leaf entries using STR packing. The relative
  /// order of `leaf_entries` is not preserved (they are spatially sorted).
  /// Paranoid builds audit the result (ValidateInvariants).
  static RStarTree BulkLoadStr(size_t dims, std::vector<Entry> leaf_entries) {
    return BulkLoadStr(dims, std::move(leaf_entries), Options{});
  }
  static RStarTree BulkLoadStr(size_t dims, std::vector<Entry> leaf_entries,
                               Options options);

  size_t dims() const { return dims_; }
  bool empty() const { return size_ == 0; }
  uint64_t size() const { return size_; }

  /// Root node id. Only valid when !empty().
  uint32_t root() const { return root_; }

  /// Tree height = root level + 1. 0 for an empty tree.
  uint32_t height() const { return empty() ? 0 : nodes_[root_].level + 1; }

  const Node& node(uint32_t id) const { return nodes_[id]; }
  size_t NumNodes() const { return nodes_.size(); }

  /// Registers a `NumNodes()`-page file on `disk` so traversals can charge
  /// node I/O (node n lives on page n). Call after the tree is built.
  void AttachFile(StorageBackend* disk, std::string_view name);

  /// The attached node file id, if any.
  std::optional<uint32_t> file_id() const { return file_id_; }

  /// Structural audit: every node holds 1..M entries, parent MBRs exactly
  /// cover their children and equal the entry boxes that point at them,
  /// leaf depth is uniform, and every data id is reachable exactly once
  /// (`size()` of them). STR leaves the last node of a slab short, so
  /// there is no minimum fill. Returns Corruption naming the first
  /// violation found.
  Status ValidateInvariants() const;

 private:
  size_t dims_;
  Options options_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  uint64_t size_ = 0;
  std::optional<uint32_t> file_id_;
};

}  // namespace pmjoin

#endif  // PMJOIN_INDEX_RSTAR_TREE_H_
