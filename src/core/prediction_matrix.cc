#include "core/prediction_matrix.h"

#include <algorithm>
#include <cassert>

namespace pmjoin {

PredictionMatrix::PredictionMatrix(uint32_t rows, uint32_t cols)
    : rows_(rows), cols_(cols), row_entries_(rows) {}

void PredictionMatrix::Mark(uint32_t r, uint32_t c) {
  assert(r < rows_ && c < cols_);
  row_entries_[r].push_back(c);
  finalized_ = false;
}

void PredictionMatrix::Finalize() {
  marked_count_ = 0;
  for (std::vector<uint32_t>& cols : row_entries_) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    marked_count_ += cols.size();
  }
  finalized_ = true;
}

bool PredictionMatrix::IsMarked(uint32_t r, uint32_t c) const {
  assert(finalized_);
  const std::vector<uint32_t>& cols = row_entries_[r];
  return std::binary_search(cols.begin(), cols.end(), c);
}

std::vector<MatrixEntry> PredictionMatrix::AllEntries() const {
  assert(finalized_);
  std::vector<MatrixEntry> out;
  out.reserve(marked_count_);
  for (uint32_t r = 0; r < rows_; ++r) {
    for (uint32_t c : row_entries_[r]) out.push_back(MatrixEntry{r, c});
  }
  return out;
}

std::vector<uint32_t> PredictionMatrix::MarkedRows() const {
  std::vector<uint32_t> out;
  for (uint32_t r = 0; r < rows_; ++r) {
    if (!row_entries_[r].empty()) out.push_back(r);
  }
  return out;
}

std::vector<uint32_t> PredictionMatrix::MarkedCols() const {
  std::vector<bool> marked(cols_, false);
  for (const std::vector<uint32_t>& cols : row_entries_) {
    for (uint32_t c : cols) marked[c] = true;
  }
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < cols_; ++c) {
    if (marked[c]) out.push_back(c);
  }
  return out;
}

double PredictionMatrix::Selectivity() const {
  const double grid = double(rows_) * double(cols_);
  return grid == 0.0 ? 0.0 : double(marked_count_) / grid;
}

Status PredictionMatrix::ValidateInvariants() const {
  if (!finalized_)
    return Status::Internal("matrix queried before Finalize()");
  if (row_entries_.size() != rows_)
    return Status::Internal("row count does not match row storage");
  uint64_t total = 0;
  for (uint32_t r = 0; r < rows_; ++r) {
    const std::vector<uint32_t>& cols = row_entries_[r];
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] >= cols_)
        return Status::Internal("marked column id out of range");
      if (i > 0 && cols[i - 1] >= cols[i])
        return Status::Internal("row entries not strictly ascending");
    }
    total += cols.size();
  }
  if (total != marked_count_)
    return Status::Internal("marked_count does not match row storage");
  return Status::OK();
}

}  // namespace pmjoin
