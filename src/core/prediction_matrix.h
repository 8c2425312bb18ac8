#ifndef PMJOIN_CORE_PREDICTION_MATRIX_H_
#define PMJOIN_CORE_PREDICTION_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace pmjoin {

/// One marked entry of the prediction matrix: page r of R × page s of S.
/// The unit of work every join operator consumes — pm-NLJ iterates them
/// per block (Fig. 4), the clustering algorithms partition them (§7), and
/// the executor joins a cluster's entries once its pages are resident.
struct MatrixEntry {
  uint32_t row = 0;
  uint32_t col = 0;

  bool operator==(const MatrixEntry& other) const {
    return row == other.row && col == other.col;
  }
  bool operator<(const MatrixEntry& other) const {
    return row != other.row ? row < other.row : col < other.col;
  }
};

/// The paper's central data structure (§5): a sparse boolean matrix over
/// the page grid of two datasets. Entry (i, j) is marked iff the
/// lower-bounding distance between page i of R and page j of S is at most
/// the join threshold — i.e. the page pair may contribute result tuples
/// (Theorem 1: unmarked pairs provably contribute nothing).
///
/// Stored sparsely as per-row sorted column lists (the paper notes O(w)
/// space, w = number of marked entries).
class PredictionMatrix {
 public:
  PredictionMatrix(uint32_t rows, uint32_t cols);

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }

  /// Marks entry (r, c). Duplicate marks are coalesced by `Finalize`.
  void Mark(uint32_t r, uint32_t c);

  /// Sorts and deduplicates. Must be called after construction, before any
  /// query. Idempotent.
  void Finalize();

  /// Number of marked entries, w.
  uint64_t MarkedCount() const { return marked_count_; }

  /// True iff (r, c) is marked. Requires Finalize().
  bool IsMarked(uint32_t r, uint32_t c) const;

  /// Sorted column ids marked in row r. Requires Finalize().
  const std::vector<uint32_t>& RowEntries(uint32_t r) const {
    return row_entries_[r];
  }

  /// All marked entries in row-major order. Requires Finalize().
  std::vector<MatrixEntry> AllEntries() const;

  /// Marked pages of R (rows with >= 1 entry), ascending.
  std::vector<uint32_t> MarkedRows() const;

  /// Marked pages of S (columns with >= 1 entry), ascending.
  std::vector<uint32_t> MarkedCols() const;

  /// Fraction of the full grid that is marked (the paper's page-level
  /// query selectivity).
  double Selectivity() const;

  /// Structural audit: the matrix is finalized, every row's column list is
  /// strictly ascending (sorted, deduplicated) with all ids < cols(), and
  /// `MarkedCount()` equals the sum of row sizes. Completeness against the
  /// join semantics (Theorem 1: marks ⊇ page pairs that contribute result
  /// tuples) cannot be checked structurally; the invariant-audit tests
  /// verify it against the brute-force reference join on sampled inputs.
  /// Returns Internal describing the first violation found.
  Status ValidateInvariants() const;

 private:
  uint32_t rows_;
  uint32_t cols_;
  bool finalized_ = false;
  uint64_t marked_count_ = 0;
  std::vector<std::vector<uint32_t>> row_entries_;
};

}  // namespace pmjoin

#endif  // PMJOIN_CORE_PREDICTION_MATRIX_H_
