#ifndef PMJOIN_GEOM_DISTANCE_KERNELS_H_
#define PMJOIN_GEOM_DISTANCE_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "geom/distance.h"

namespace pmjoin {
namespace kernels {

/// Batch distance kernels: one query record against a contiguous block of
/// records (DESIGN.md "Kernel layer").
///
/// This header is the *dispatch boundary*: all callers in src/ go through
/// the functions declared here; the implementation picks, per (norm,
/// padded-width) combination, a compile-time-specialized auto-vectorizable
/// loop or — when the build enables it — an explicit `__AVX2__` path. The
/// instruction-set selection is an implementation detail that callers must
/// never see (enforced by tools/pmjoin_lint.py rule kernel-dispatch).
///
/// Determinism contract: every kernel decides "within eps" *exactly* as the
/// scalar reference `WithinDistance` (geom/distance.h) does — a
/// double-precision accumulation over all `dims` terms compared against the
/// threshold. The fast path accumulates in float; any record whose float
/// distance lands inside a conservative rounding-error band around the
/// threshold is re-evaluated with the scalar double-precision reference, so
/// the accept/reject bit is always the reference bit. Layout (padding,
/// tiling, vector width) can therefore never change an emitted pair.

/// A contiguous row-major block of records. `stride` is the float distance
/// between consecutive records and may exceed `dims` (padded layouts, e.g.
/// VectorDataset::PageBlock's `PaddedWidth` rows); rows must be
/// zero-filled between `dims` and `stride`.
struct BlockView {
  const float* data = nullptr;
  uint32_t count = 0;
  uint32_t stride = 0;
};

/// The SIMD lane width in floats: 8 floats = one 256-bit vector register.
inline constexpr uint32_t kLaneFloats = 8;

/// The padded row stride for `dims`-float records: the next power of two
/// below one lane (1, 2 or 4 floats, so a 2-d point is two floats, not
/// eight), a multiple of the lane width from there on. Every narrow and
/// every lane-multiple stride up to 64 has a compile-time kernel.
inline constexpr uint32_t PaddedWidth(size_t dims) {
  if (dims < kLaneFloats) return static_cast<uint32_t>(std::bit_ceil(dims));
  return static_cast<uint32_t>((dims + kLaneFloats - 1) / kLaneFloats) *
         kLaneFloats;
}

/// Writes `mask[j] = 1` iff distance(query, row j of block) <= eps under
/// `norm`, `0` otherwise, for j in [0, block.count); returns the number of
/// set entries. `mask` must hold at least `block.count` bytes. `query`
/// must be readable (and zero-padded) out to `block.stride` floats.
uint32_t WithinMaskBlock(const float* query, const BlockView& block,
                         size_t dims, Norm norm, double eps, uint8_t* mask);

/// One-vs-block top-k candidate pass: writes `stats[j]` for every row j of
/// `block`. Rows whose exact statistic might be <= `bound_stat` (the
/// caller's current k-th-neighbor statistic; +infinity while its heap is
/// unfilled) get their exact `DistanceStat` value; rows the float filter
/// proves beyond the bound get +infinity. `bound_stat` is in statistic
/// space (squared distance for L2, the sum for L1, the max for Linf).
/// Returns the number of exact evaluations. Same float-band +
/// scalar-double re-decision contract as the ε kernels: a row is only
/// dropped when its float statistic clears the bound by more than the
/// rounding-error band, so the surviving candidate set — and hence every
/// selected neighbor — is byte-identical to the scalar reference.
uint32_t KnnCandidateBlock(const float* query, const BlockView& block,
                           size_t dims, Norm norm, double bound_stat,
                           double* stats);

/// One-vs-one predicate with the same decision bit as the scalar reference
/// `WithinDistance` — the kernel-layer entry point for callers whose
/// candidate rows are not contiguous (EGO's grid band).
/// `a` and `b` need only `dims` readable floats (no padding required).
bool WithinOne(const float* a, const float* b, size_t dims, Norm norm,
               double eps);

/// True when the build's explicit SIMD path is compiled in (reported by
/// benchmarks; decisions are identical either way).
bool HasExplicitSimd();

}  // namespace kernels
}  // namespace pmjoin

#endif  // PMJOIN_GEOM_DISTANCE_KERNELS_H_
