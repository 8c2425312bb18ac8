#ifndef PMJOIN_GEOM_DISTANCE_H_
#define PMJOIN_GEOM_DISTANCE_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <string>

namespace pmjoin {

/// Vector norms supported by the join predicates.
///
/// The paper ("any metric", Table 1) evaluates with vector norms; we support
/// L1, L2, and L-infinity. All MINDIST lower bounds in geom/mbr.h are exact
/// for each of these norms.
enum class Norm {
  kL1,
  kL2,
  kLInf,
};

/// Human-readable norm name ("L1", "L2", "Linf").
std::string NormName(Norm norm);

/// Distance between two d-dimensional vectors under `norm`.
///
/// Adds `a.size()` to an externally tracked distance_terms counter at the
/// call site (the function itself is counter-free so it can be used in
/// tight loops and tests).
double VectorDistance(std::span<const float> a, std::span<const float> b,
                      Norm norm);

/// True iff distance(a, b) <= eps under `norm`, with early abandoning:
/// the accumulation stops as soon as the partial sum exceeds the threshold.
bool WithinDistance(std::span<const float> a, std::span<const float> b,
                    Norm norm, double eps);

/// The exact comparison statistic behind every threshold decision: the L1
/// sum, the *squared* L2 sum (no sqrt), or the Linf max, accumulated in
/// double precision in index order. `WithinDistance(a, b, norm, eps)` is
/// exactly `DistanceStat(a, b, norm) <= (norm == L2 ? eps*eps : eps)`; the
/// kNN path orders neighbors by this statistic so its selections agree
/// bit-for-bit with the ε predicates and the scalar reference.
double DistanceStat(std::span<const float> a, std::span<const float> b,
                    Norm norm);

}  // namespace pmjoin

#endif  // PMJOIN_GEOM_DISTANCE_H_
