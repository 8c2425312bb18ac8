#include "core/knn_join.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/distance_kernels.h"

namespace pmjoin {
namespace {

/// Lexicographic (statistic, id) order — the deterministic tie-break at
/// the k-th distance.
inline bool NeighborLess(const KnnResultSink::Neighbor& a,
                         const KnnResultSink::Neighbor& b) {
  if (a.stat != b.stat) return a.stat < b.stat;
  return a.id < b.id;
}

}  // namespace

KnnResultSink::KnnResultSink(uint64_t num_records, uint32_t k)
    : k_(k), heaps_(num_records) {}

void KnnResultSink::Offer(uint64_t r_id, double stat, uint64_t s_id) {
  if (std::isinf(stat)) return;
  std::vector<Neighbor>& heap = heaps_[r_id];
  const Neighbor cand{stat, s_id};
  if (heap.size() < k_) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
    return;
  }
  if (NeighborLess(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), NeighborLess);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), NeighborLess);
  }
}

double KnnResultSink::BoundStat(uint64_t r_id) const {
  const std::vector<Neighbor>& heap = heaps_[r_id];
  if (heap.size() < k_) return std::numeric_limits<double>::infinity();
  return heap.front().stat;
}

std::vector<KnnResultSink::Neighbor> KnnResultSink::SortedNeighbors(
    uint64_t r_id) const {
  std::vector<Neighbor> out = heaps_[r_id];
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

uint64_t KnnResultSink::Emit(PairSink* sink, OpCounters* ops) const {
  uint64_t pairs = 0;
  for (uint64_t rid = 0; rid < heaps_.size(); ++rid) {
    for (const Neighbor& nb : SortedNeighbors(rid)) sink->OnPair(rid, nb.id);
    pairs += heaps_[rid].size();
  }
  if (ops != nullptr) ops->result_pairs += pairs;
  return pairs;
}

KnnCandidateMatrix KnnCandidateMatrix::Build(const std::vector<Mbr>& r_mbrs,
                                             const std::vector<Mbr>& s_mbrs,
                                             Norm norm, OpCounters* ops) {
  KnnCandidateMatrix m;
  m.cols_ = static_cast<uint32_t>(s_mbrs.size());
  m.rows_.resize(r_mbrs.size());
  for (size_t rp = 0; rp < r_mbrs.size(); ++rp) {
    std::vector<Candidate>& row = m.rows_[rp];
    row.reserve(s_mbrs.size());
    for (size_t sp = 0; sp < s_mbrs.size(); ++sp) {
      // Page-level lower bound in the record statistic's comparison space:
      // squared MINDIST for L2 (MinDistSquared shares the gap terms and
      // accumulation order with MinDist), plain MINDIST for L1/Linf.
      const double bound = norm == Norm::kL2
                               ? r_mbrs[rp].MinDistSquared(s_mbrs[sp])
                               : r_mbrs[rp].MinDist(s_mbrs[sp], norm);
      row.push_back(Candidate{bound, static_cast<uint32_t>(sp)});
    }
    std::sort(row.begin(), row.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.bound_stat != b.bound_stat)
                  return a.bound_stat < b.bound_stat;
                return a.s_page < b.s_page;
              });
  }
  if (ops != nullptr) {
    const uint64_t cells = uint64_t(r_mbrs.size()) * s_mbrs.size();
    ops->mbr_tests += cells;
    ops->cluster_ops += cells;
  }
  return m;
}

Status KnnCandidateMatrix::ValidateInvariants() const {
  std::vector<uint8_t> seen(cols_, 0);
  for (const std::vector<Candidate>& row : rows_) {
    if (row.size() != cols_)
      return Status::Internal("knn candidate row is incomplete");
    std::fill(seen.begin(), seen.end(), uint8_t{0});
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].s_page >= cols_ || seen[row[i].s_page] != 0)
        return Status::Internal("knn candidate row repeats a page");
      seen[row[i].s_page] = 1;
      if (i > 0 && (row[i].bound_stat < row[i - 1].bound_stat ||
                    (row[i].bound_stat == row[i - 1].bound_stat &&
                     row[i].s_page < row[i - 1].s_page)))
        return Status::Internal("knn candidate row is unsorted");
    }
  }
  return Status::OK();
}

Status KnnJoinVectors(const VectorDataset& r, const VectorDataset& s,
                      const KnnCandidateMatrix& matrix,
                      const KnnJoinOptions& options, BufferPool* pool,
                      KnnResultSink* results, OpCounters* ops) {
  if (options.k == 0) return Status::InvalidArgument("kNN join needs k >= 1");
  if (r.dims() != s.dims())
    return Status::InvalidArgument("kNN join inputs disagree on dims");
  if (matrix.rows() != r.num_pages() || matrix.cols() != s.num_pages())
    return Status::InvalidArgument("knn candidate matrix shape mismatch");
  if (results->k() != options.k || results->num_records() != r.num_records())
    return Status::InvalidArgument("knn result sink shape mismatch");

  const size_t dims = r.dims();
  const Norm norm = options.norm;
  const bool prune = options.prune;
  // Kernel output buffer, sized to the widest S page.
  std::vector<double> stats(s.records_per_page());

  for (uint32_t rp = 0; rp < r.num_pages(); ++rp) {
    const PageId rpid{r.file_id(), rp};
    Status st = pool->Pin(rpid);
    if (!st.ok()) return st;
    const uint32_t nr = r.PageRecordCount(rp);
    for (const KnnCandidateMatrix::Candidate& cand : matrix.Row(rp)) {
      if (ops != nullptr) ops->filter_checks += 1;
      if (prune) {
        // Page-level kill: τ is the loosest resident bound. The candidate
        // row is sorted, so once a bound exceeds τ every later candidate
        // does too — stop expanding this R page. Strictly greater-than:
        // a page at exactly τ may still hold an equal-statistic,
        // smaller-id neighbor that displaces the current k-th.
        double tau = 0.0;
        for (uint32_t slot = 0; slot < nr; ++slot)
          tau = std::max(tau, results->BoundStat(r.OriginalId(rp, slot)));
        if (cand.bound_stat > tau) break;
      }
      const PageId spid{s.file_id(), cand.s_page};
      st = pool->Pin(spid);
      if (!st.ok()) {
        pool->Unpin(rpid);
        return st;
      }
      const uint32_t ns = s.PageRecordCount(cand.s_page);
      const kernels::BlockView s_block = s.PageBlock(cand.s_page);
      for (uint32_t slot = 0; slot < nr; ++slot) {
        const uint64_t rid = r.OriginalId(rp, slot);
        const double bound = results->BoundStat(rid);
        if (prune && cand.bound_stat > bound) continue;
        const float* query = r.Record(rp, slot).data();
        kernels::KnnCandidateBlock(query, s_block, dims, norm, bound,
                                   stats.data());
        for (uint32_t j = 0; j < ns; ++j) {
          if (std::isinf(stats[j])) continue;
          const uint64_t sid = s.OriginalId(cand.s_page, j);
          if (options.self_join && sid == rid) continue;
          results->Offer(rid, stats[j], sid);
        }
      }
      // Deterministic CPU charge: the full record-pair evaluation cost,
      // independent of per-record skips and kernel early abandoning
      // (VectorPairJoiner's convention).
      if (ops != nullptr) ops->distance_terms += uint64_t(nr) * ns * dims;
      pool->Unpin(spid);
    }
    pool->Unpin(rpid);
  }
  return Status::OK();
}

}  // namespace pmjoin
