#ifndef PMJOIN_DATA_VECTOR_DATASET_H_
#define PMJOIN_DATA_VECTOR_DATASET_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/generators.h"
#include "geom/distance_kernels.h"
#include "geom/mbr.h"
#include "index/rstar_tree.h"
#include "io/storage_backend.h"

namespace pmjoin {

/// A paged, spatially clustered vector (point/spatial) dataset.
///
/// Construction follows the paper's §5.1 setup: records are packed into
/// pages with STR so each page is spatially tight, the page contents are
/// contiguous on disk (page i precedes page i+1 physically), each page's
/// MBR is its lower-bounding summary, and an R-tree is bulk-loaded over
/// the page MBRs ("the capacity of each MBR is set to one page size").
///
/// Record identity: operators report the *original* record index (the
/// index into the `VectorData` passed to `Build`), so results from every
/// operator — and the brute-force reference join — are directly comparable
/// regardless of the on-disk permutation.
class VectorDataset {
 public:
  struct Options {
    /// Page capacity in bytes; records per page = page_size_bytes /
    /// (dims · sizeof(float)).
    uint32_t page_size_bytes = 4096;
  };

  /// Builds the dataset on `disk`. Fails with InvalidArgument if a page
  /// cannot hold at least one record, `data` is empty, or a coordinate is
  /// not finite (NaN or ±infinity: the in-page sort needs a strict weak
  /// order, and a NaN distance would pass every threshold test).
  static Result<VectorDataset> Build(StorageBackend* disk,
                                     std::string_view name, VectorData data,
                                     Options options);

  /// Writes the dataset's payload bytes to its backend file plus a
  /// `<name>.meta` sidecar file, so `Open` can restore it later (from a
  /// fresh process when the backend is persistent). Each data page holds
  /// its records unpadded in slot order (ascending coordinate 0), and the
  /// sidecar their original ids in the same order. Build itself charges
  /// no payload writes — persisting is an explicit, separately-charged
  /// step — so a join's modeled I/O is unchanged by whether the dataset
  /// was persisted. `disk` must be the backend the dataset was built on.
  Status Persist(StorageBackend* disk) const;

  /// Restores a dataset persisted as `name`. The page contents, page MBRs,
  /// original-id mapping, and bulk-loaded R-tree are reconstructed
  /// bit-identically to the original build (floats round-trip exactly;
  /// every derived structure is recomputed by the same deterministic
  /// code), so joins against a reopened dataset match the fresh build
  /// byte for byte. Open re-applies Build's stable in-page sort, so pages
  /// persisted in their older, unsorted STR order reopen to the same
  /// layout as a fresh build. A sidecar whose page geometry does not fit
  /// a backend page, that repeats an original id, or a page holding a
  /// non-finite coordinate yields Corruption.
  static Result<VectorDataset> Open(StorageBackend* disk,
                                    std::string_view name);

  size_t dims() const { return dims_; }
  uint64_t num_records() const { return orig_ids_.size(); }
  uint32_t num_pages() const {
    return static_cast<uint32_t>(page_mbrs_.size());
  }
  uint32_t records_per_page() const { return records_per_page_; }
  uint32_t file_id() const { return file_id_; }

  /// MBR of page p (the lower-bounding summary used by the prediction
  /// matrix).
  const Mbr& PageMbr(uint32_t page) const { return page_mbrs_[page]; }
  const std::vector<Mbr>& page_mbrs() const { return page_mbrs_; }

  /// Number of records stored in page p (only the last page may be short).
  uint32_t PageRecordCount(uint32_t page) const;

  /// Record `slot` of page `page` (a dims()-length span).
  std::span<const float> Record(uint32_t page, uint32_t slot) const;

  /// Contiguous row-major view of page `page` for the batch distance
  /// kernels: `data` points at the page's first record, consecutive
  /// records are `stride` floats apart, and `stride` is
  /// `kernels::PaddedWidth(dims())` (1, 2 or 4 floats below 8 dims, a
  /// multiple of 8 above) with the padding zero-filled — so a kernel can
  /// accumulate straight through `stride` terms per record without a tail
  /// loop and without changing any distance. Records of a page are
  /// guaranteed adjacent (slot s starts exactly `s * stride` floats after
  /// slot 0).
  ///
  /// Sorted-page invariant: a page's slots ascend in coordinate 0
  /// (`data[s * stride]`), ties kept in STR order. Build sorts each page
  /// and Open re-sorts it; VectorPairJoiner's sort-sweep relies on it and
  /// paranoid builds check it on every page pair joined. The invariant
  /// permutes slots within a page only: which records share a page, and
  /// so every page MBR, is decided by STR packing alone.
  kernels::BlockView PageBlock(uint32_t page) const {
    return kernels::BlockView{
        packed_.data() + uint64_t(page) * records_per_page_ * stride_,
        PageRecordCount(page), stride_};
  }

  /// The padded record stride of PageBlock, in floats.
  uint32_t padded_stride() const { return stride_; }

  /// Original (pre-permutation) id of record `slot` of page `page`.
  uint64_t OriginalId(uint32_t page, uint32_t slot) const;

  /// Record lookup by original id (used by the reference join and tests).
  std::span<const float> RecordByOriginalId(uint64_t orig_id) const;

  /// Page holding the record with original id `orig_id` (the inverse of
  /// OriginalId; used by the invariant audits to map reference-join result
  /// pairs back to page pairs).
  uint32_t PageOfOriginalId(uint64_t orig_id) const {
    return static_cast<uint32_t>(origin_pos_[orig_id] / records_per_page_);
  }

  /// STR-packed R-tree over the page MBRs (leaf entry ids are page indices).
  const RStarTree& tree() const { return tree_; }

 private:
  VectorDataset() : tree_(1) {}

  /// Stable-sorts every page's rows and original ids by coordinate 0 (the
  /// sorted-page invariant of PageBlock), then rebuilds origin_pos_.
  void SortPages();

  size_t dims_ = 0;
  uint32_t records_per_page_ = 0;
  uint32_t stride_ = 0;
  uint32_t file_id_ = 0;
  /// Records in page order (page p occupies slots [p·rpp, (p+1)·rpp)),
  /// one `stride_`-float row per record, zero-padded past dims_. Sized to
  /// whole pages so PageBlock tiles may be loaded to the lane boundary.
  std::vector<float> packed_;
  /// orig_ids_[p·rpp + slot] = original record index.
  std::vector<uint64_t> orig_ids_;
  /// origin_pos_[orig_id] = packed position.
  std::vector<uint64_t> origin_pos_;
  std::vector<Mbr> page_mbrs_;
  RStarTree tree_;
};

}  // namespace pmjoin

#endif  // PMJOIN_DATA_VECTOR_DATASET_H_
