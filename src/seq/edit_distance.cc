#include "seq/edit_distance.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace pmjoin {

size_t EditDistance(std::span<const uint8_t> a, std::span<const uint8_t> b,
                    OpCounters* ops) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter.
  const size_t n = a.size();
  const size_t m = b.size();
  if (m == 0) return n;

  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];  // DP[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t up = row[j];
      const size_t subst = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
      row[j] = std::min({subst, up + 1, row[j - 1] + 1});
      diag = up;
    }
    if (ops != nullptr) ops->edit_cells += m;
  }
  return row[m];
}

size_t BandedEditDistance(std::span<const uint8_t> a,
                          std::span<const uint8_t> b, size_t k,
                          OpCounters* ops) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t len_diff = n > m ? n - m : m - n;
  if (len_diff > k) return k + 1;
  if (m == 0) return n;
  if (n == 0) return m;

  // Band half-width: cells with |i - j| > k can never be on a path of cost
  // <= k, so only the 2k+1 diagonal band is evaluated. Row i reads the
  // previous row at [j_lo - 1, j_hi] and its own cell j_lo - 1, so besides
  // the band only the edge cells j_lo - 1 and j_hi + 1 are (re)set — the
  // rest of each buffer may hold stale values from earlier rows or calls.
  const size_t kInf = k + 1;
  thread_local std::vector<size_t> row_buf, prev_buf;
  if (row_buf.size() < m + 1) {
    row_buf.resize(m + 1);
    prev_buf.resize(m + 1);
  }
  size_t* row = row_buf.data();
  size_t* prev = prev_buf.data();
  const size_t first_hi = std::min(m, k);
  for (size_t j = 0; j <= first_hi; ++j) prev[j] = j;
  if (first_hi < m) prev[first_hi + 1] = kInf;

  for (size_t i = 1; i <= n; ++i) {
    const size_t j_lo = i > k ? i - k : 1;
    const size_t j_hi = std::min(m, i + k);
    if (j_lo > j_hi) return k + 1;
    row[j_lo - 1] = j_lo == 1 && i <= k ? i : kInf;
    if (j_hi < m) row[j_hi + 1] = kInf;
    size_t row_min = kInf;
    for (size_t j = j_lo; j <= j_hi; ++j) {
      const size_t subst = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      const size_t del = prev[j] == kInf ? kInf : prev[j] + 1;
      const size_t ins = row[j - 1] == kInf ? kInf : row[j - 1] + 1;
      row[j] = std::min({subst, del, ins, kInf});
      row_min = std::min(row_min, row[j]);
    }
    if (ops != nullptr) ops->edit_cells += j_hi - j_lo + 1;
    if (row_min > k) return k + 1;  // Early abandon: band exceeded k.
    std::swap(row, prev);
  }
  return std::min(prev[m], kInf);
}

}  // namespace pmjoin
