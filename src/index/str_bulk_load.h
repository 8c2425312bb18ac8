#ifndef PMJOIN_INDEX_STR_BULK_LOAD_H_
#define PMJOIN_INDEX_STR_BULK_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/mbr.h"

namespace pmjoin {

/// Sort-Tile-Recursive packing (Leutenegger et al.): groups `items` into
/// runs of at most `capacity` so that each run is spatially tight.
///
/// Used in two places:
///  1. laying out a vector dataset on disk so each page's records are
///     spatially clustered (paper §5.1: "the data objects are sorted so
///     that the contents of each leaf level MBR appear contiguously on
///     disk");
///  2. bulk-loading the R-tree levels bottom-up.
///
/// Returns the item indices in packed order, partitioned into groups:
/// `groups[g]` lists indices of `items` forming group g. Works for any
/// dimensionality (recursive slab partitioning). Deterministic.
std::vector<std::vector<uint32_t>> StrPack(const std::vector<Mbr>& items,
                                           size_t capacity);

}  // namespace pmjoin

#endif  // PMJOIN_INDEX_STR_BULK_LOAD_H_
