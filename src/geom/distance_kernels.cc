#include "geom/distance_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>

#ifdef __AVX2__
#include <immintrin.h>
#endif

// Kernel implementation notes
// ---------------------------
// Records are compared in single precision: one query row against every
// row of a contiguous tile, with restrict-qualified pointers and
// compile-time trip counts so the compiler can keep the inner loop in
// vector registers. The float statistic (sum for L1/L2, max for Linf) is
// then classified against the threshold with a conservative rounding-error
// band: outside the band the float decision provably equals the scalar
// double-precision decision; inside it we re-run the scalar reference
// `WithinDistance`, so the exported bit is the reference bit in every
// case. That band is what lets the fast path change its accumulation
// order (vector lanes, FMA contraction, the #ifdef __AVX2__ path below)
// without ever changing an emitted pair.

namespace pmjoin {
namespace kernels {
namespace {

#define PMJOIN_RESTRICT __restrict__

/// Error band half-width, relative to the threshold: the float statistic
/// for `n` accumulated terms differs from the exact double value by at
/// most ~(n + 3) ulps relative; we double that and add a tiny absolute
/// floor so a zero threshold still classifies exactly.
inline double ErrorBand(size_t terms, double threshold) {
  return static_cast<double>(terms + 8) * 1.2e-7 * threshold + 1e-35;
}

/// Threshold set for one (norm, dims, eps) combination. `thr` is the
/// exact comparison value (eps, or eps^2 for L2); float statistics at or
/// below `lo` are accepted, at or above `hi` rejected, and anything
/// between is re-decided by the scalar reference.
struct Thresholds {
  double lo = 0.0;
  double hi = 0.0;
  double eps = 0.0;
};

inline Thresholds MakeThresholds(Norm norm, size_t dims, double eps) {
  const double thr = norm == Norm::kL2 ? eps * eps : eps;
  const double band = ErrorBand(dims, thr);
  return Thresholds{thr - band, thr + band, eps};
}

/// Float statistic over exactly `n` terms, `n` known at compile time where
/// it matters (the padded-width dispatch below instantiates W in
/// {1, 2, 4, 8, 16, 32, 64}). Plain contiguous loops: with a constant trip
/// count these fully unroll, and lane multiples vectorize.
template <Norm N>
inline float FloatStat(const float* PMJOIN_RESTRICT a,
                       const float* PMJOIN_RESTRICT b, size_t n) {
  if constexpr (N == Norm::kL1) {
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) sum += std::fabs(a[i] - b[i]);
    return sum;
  } else if constexpr (N == Norm::kL2) {
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      const float d = a[i] - b[i];
      sum += d * d;
    }
    return sum;
  } else {
    float mx = 0.0f;
    for (size_t i = 0; i < n; ++i) mx = std::max(mx, std::fabs(a[i] - b[i]));
    return mx;
  }
}

#ifdef __AVX2__

/// Explicit 8-lane path for padded rows (`n` a multiple of kLaneFloats).
/// Reached only through the dispatch below — callers never select it.
template <Norm N>
inline float FloatStatAvx2(const float* PMJOIN_RESTRICT a,
                           const float* PMJOIN_RESTRICT b, size_t n) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 acc = _mm256_setzero_ps();
  for (size_t i = 0; i < n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    if constexpr (N == Norm::kL1) {
      acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign_mask, d));
    } else if constexpr (N == Norm::kL2) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    } else {
      acc = _mm256_max_ps(acc, _mm256_andnot_ps(sign_mask, d));
    }
  }
  // Horizontal reduction of the 8 lanes.
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 r = N == Norm::kLInf ? _mm_max_ps(lo, hi) : _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehl_ps(r, r);
  r = N == Norm::kLInf ? _mm_max_ps(r, shuf) : _mm_add_ps(r, shuf);
  shuf = _mm_shuffle_ps(r, r, 0x1);
  r = N == Norm::kLInf ? _mm_max_ss(r, shuf) : _mm_add_ss(r, shuf);
  return _mm_cvtss_f32(r);
}

#endif  // __AVX2__

/// Float statistic of one row at compile-time padded width W: lane
/// multiples take the explicit 8-lane path when the build has it, the
/// narrow widths (1, 2, 4) the unrolled plain loop.
template <Norm N, uint32_t W>
inline float PaddedStat(const float* PMJOIN_RESTRICT a,
                        const float* PMJOIN_RESTRICT b) {
#ifdef __AVX2__
  if constexpr (W % kLaneFloats == 0) return FloatStatAvx2<N>(a, b, W);
#endif
  return FloatStat<N>(a, b, W);
}

/// Float statistic with per-tile early abandoning for wide records: the
/// accumulation is checked against the reject bound every
/// `kAbandonChunk` terms, so a distant pair in a 4096-d row stops after
/// one chunk. Only the generic (runtime-width) path abandons; the
/// compile-time widths below are short enough that the branch would cost
/// more than it saves.
constexpr size_t kAbandonChunk = 64;

template <Norm N>
inline float GenericStat(const float* PMJOIN_RESTRICT a,
                         const float* PMJOIN_RESTRICT b, size_t n,
                         float reject_at) {
  if constexpr (N == Norm::kLInf) {
    float mx = 0.0f;
    for (size_t i = 0; i < n; i += kAbandonChunk) {
      const size_t end = std::min(n, i + kAbandonChunk);
      for (size_t k = i; k < end; ++k)
        mx = std::max(mx, std::fabs(a[k] - b[k]));
      if (mx >= reject_at) return mx;
    }
    return mx;
  } else {
    float sum = 0.0f;
    for (size_t i = 0; i < n; i += kAbandonChunk) {
      const size_t end = std::min(n, i + kAbandonChunk);
      if constexpr (N == Norm::kL1) {
        for (size_t k = i; k < end; ++k) sum += std::fabs(a[k] - b[k]);
      } else {
        for (size_t k = i; k < end; ++k) {
          const float d = a[k] - b[k];
          sum += d * d;
        }
      }
      if (sum >= reject_at) return sum;
    }
    return sum;
  }
}

/// Classifies a float statistic: certain accept / certain reject by the
/// error band, exact scalar re-evaluation otherwise.
template <Norm N>
inline bool Decide(float stat, const Thresholds& t, const float* a,
                   const float* b, size_t dims) {
  const double s = static_cast<double>(stat);
  if (s <= t.lo) return true;
  if (s >= t.hi) return false;
  return WithinDistance(std::span<const float>(a, dims),
                        std::span<const float>(b, dims), N, t.eps);
}

/// One query against every row of the block at compile-time padded width
/// W. When `mask` is null only the count is produced.
template <Norm N, uint32_t W>
uint32_t BlockFixed(const float* PMJOIN_RESTRICT query,
                    const BlockView& block, size_t dims,
                    const Thresholds& t, uint8_t* mask) {
  const float* PMJOIN_RESTRICT rows = block.data;
  uint32_t within = 0;
  for (uint32_t j = 0; j < block.count; ++j) {
    const float* row = rows + size_t(j) * W;
    const uint8_t bit = Decide<N>(PaddedStat<N, W>(query, row), t, query,
                                  row, dims);
    within += bit;
    if (mask != nullptr) mask[j] = bit;
  }
  return within;
}

/// Runtime-width fallback for strides without a compile-time kernel:
/// padded strides wider than 64, and unpadded blocks such as EGO's sorted
/// feature rows (stride == dims) at an odd width.
template <Norm N>
uint32_t BlockGeneric(const float* PMJOIN_RESTRICT query,
                      const BlockView& block, size_t dims,
                      const Thresholds& t, uint8_t* mask) {
  const float* PMJOIN_RESTRICT rows = block.data;
  const size_t stride = block.stride;
  // Accumulate only over the padded width when rows are padded (the tail
  // is zero-filled and contributes nothing), else over `dims`.
  const size_t n = stride >= dims ? stride : dims;
  const float reject_at = static_cast<float>(t.hi);
  uint32_t within = 0;
  for (uint32_t j = 0; j < block.count; ++j) {
    const float* row = rows + size_t(j) * stride;
    const float stat = GenericStat<N>(query, row, n, reject_at);
    const uint8_t bit = Decide<N>(stat, t, query, row, dims);
    within += bit;
    if (mask != nullptr) mask[j] = bit;
  }
  return within;
}

/// Exact statistic for one row of a kNN candidate pass.
inline double KnnExact(const float* query, const float* row, size_t dims,
                       Norm norm) {
  return DistanceStat(std::span<const float>(query, dims),
                      std::span<const float>(row, dims), norm);
}

/// kNN candidate pass at compile-time padded width W: float statistic
/// filtered against the adaptive bound's reject edge; survivors get the
/// exact scalar statistic. There is no accept edge here — top-k ordering
/// needs the exact value, not just the bit, so every survivor is
/// re-accumulated in double.
template <Norm N, uint32_t W>
uint32_t KnnFixed(const float* PMJOIN_RESTRICT query, const BlockView& block,
                  size_t dims, double reject_hi, double* stats) {
  const float* PMJOIN_RESTRICT rows = block.data;
  uint32_t exact = 0;
  for (uint32_t j = 0; j < block.count; ++j) {
    const float* row = rows + size_t(j) * W;
    const float stat = PaddedStat<N, W>(query, row);
    if (static_cast<double>(stat) >= reject_hi) {
      stats[j] = std::numeric_limits<double>::infinity();
      continue;
    }
    stats[j] = KnnExact(query, row, dims, N);
    ++exact;
  }
  return exact;
}

/// Runtime-width kNN candidate pass (GenericStat abandons at the reject
/// edge, so a distant row in a wide record stops after one chunk).
template <Norm N>
uint32_t KnnGeneric(const float* PMJOIN_RESTRICT query,
                    const BlockView& block, size_t dims, double reject_hi,
                    double* stats) {
  const float* PMJOIN_RESTRICT rows = block.data;
  const size_t stride = block.stride;
  const size_t n = stride >= dims ? stride : dims;
  const float reject_at = static_cast<float>(reject_hi);
  uint32_t exact = 0;
  for (uint32_t j = 0; j < block.count; ++j) {
    const float* row = rows + size_t(j) * stride;
    const float stat = GenericStat<N>(query, row, n, reject_at);
    if (static_cast<double>(stat) >= reject_hi) {
      stats[j] = std::numeric_limits<double>::infinity();
      continue;
    }
    stats[j] = KnnExact(query, row, dims, N);
    ++exact;
  }
  return exact;
}

/// The padded-width dispatch: calls `fixed` with a
/// std::integral_constant carrying the stride for every stride with a
/// compile-time kernel (the PaddedWidth values up to 64), `generic`
/// otherwise.
template <typename Fixed, typename Generic>
inline uint32_t ByStride(uint32_t stride, Fixed&& fixed, Generic&& generic) {
  switch (stride) {
    case 1:
      return fixed(std::integral_constant<uint32_t, 1>{});
    case 2:
      return fixed(std::integral_constant<uint32_t, 2>{});
    case 4:
      return fixed(std::integral_constant<uint32_t, 4>{});
    case 8:
      return fixed(std::integral_constant<uint32_t, 8>{});
    case 16:
      return fixed(std::integral_constant<uint32_t, 16>{});
    case 32:
      return fixed(std::integral_constant<uint32_t, 32>{});
    case 64:
      return fixed(std::integral_constant<uint32_t, 64>{});
    default:
      return generic();
  }
}

template <Norm N>
uint32_t KnnDispatch(const float* query, const BlockView& block, size_t dims,
                     double bound_stat, double* stats) {
  if (block.count == 0) return 0;
  if (std::isinf(bound_stat)) {
    // No bound yet (an unfilled heap): every row is a candidate, and a
    // float overflow must not drop one, so skip the float pass entirely.
    const size_t stride = block.stride;
    for (uint32_t j = 0; j < block.count; ++j)
      stats[j] = KnnExact(query, block.data + size_t(j) * stride, dims, N);
    return block.count;
  }
  const double reject_hi = bound_stat + ErrorBand(dims, bound_stat);
  return ByStride(
      block.stride,
      [&](auto w) {
        return KnnFixed<N, decltype(w)::value>(query, block, dims, reject_hi,
                                               stats);
      },
      [&] { return KnnGeneric<N>(query, block, dims, reject_hi, stats); });
}

template <Norm N>
uint32_t BlockDispatch(const float* query, const BlockView& block,
                       size_t dims, double eps, uint8_t* mask) {
  const Thresholds t = MakeThresholds(N, dims, eps);
  return ByStride(
      block.stride,
      [&](auto w) {
        return BlockFixed<N, decltype(w)::value>(query, block, dims, t, mask);
      },
      [&] { return BlockGeneric<N>(query, block, dims, t, mask); });
}

uint32_t NormDispatch(const float* query, const BlockView& block,
                      size_t dims, Norm norm, double eps, uint8_t* mask) {
  if (block.count == 0) return 0;
  switch (norm) {
    case Norm::kL1:
      return BlockDispatch<Norm::kL1>(query, block, dims, eps, mask);
    case Norm::kL2:
      return BlockDispatch<Norm::kL2>(query, block, dims, eps, mask);
    case Norm::kLInf:
      return BlockDispatch<Norm::kLInf>(query, block, dims, eps, mask);
  }
  return 0;
}

}  // namespace

uint32_t WithinMaskBlock(const float* query, const BlockView& block,
                         size_t dims, Norm norm, double eps, uint8_t* mask) {
  return NormDispatch(query, block, dims, norm, eps, mask);
}

uint32_t KnnCandidateBlock(const float* query, const BlockView& block,
                           size_t dims, Norm norm, double bound_stat,
                           double* stats) {
  switch (norm) {
    case Norm::kL1:
      return KnnDispatch<Norm::kL1>(query, block, dims, bound_stat, stats);
    case Norm::kL2:
      return KnnDispatch<Norm::kL2>(query, block, dims, bound_stat, stats);
    case Norm::kLInf:
      return KnnDispatch<Norm::kLInf>(query, block, dims, bound_stat, stats);
  }
  return 0;
}

bool WithinOne(const float* a, const float* b, size_t dims, Norm norm,
               double eps) {
  const BlockView one{b, 1, static_cast<uint32_t>(dims)};
  return NormDispatch(a, one, dims, norm, eps, nullptr) != 0;
}

bool HasExplicitSimd() {
#ifdef __AVX2__
  return true;
#else
  return false;
#endif
}

}  // namespace kernels
}  // namespace pmjoin
