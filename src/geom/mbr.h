#ifndef PMJOIN_GEOM_MBR_H_
#define PMJOIN_GEOM_MBR_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "geom/distance.h"

namespace pmjoin {

/// A d-dimensional Minimum Bounding Rectangle.
///
/// MBRs approximate the contents of a disk page (paper §1): the page MBR of
/// a set of records is the componentwise [min, max] box over their feature
/// vectors. The prediction matrix marks a page pair when the MINDIST lower
/// bound between the two page MBRs is at most the join threshold ε —
/// equivalently (paper §5.1), when the MBRs, each extended by ε/2 in all
/// directions, intersect (exact for L2/L1/Linf interval geometry since
/// MINDIST decomposes per dimension).
class Mbr {
 public:
  /// Creates an empty (inverted) MBR of the given dimensionality. An empty
  /// MBR contains nothing and expands to the first point added.
  explicit Mbr(size_t dims);

  /// Creates a degenerate MBR covering exactly one point.
  static Mbr FromPoint(std::span<const float> point);

  /// Creates an MBR from explicit bounds. `lo[i] <= hi[i]` must hold.
  static Mbr FromBounds(std::vector<float> lo, std::vector<float> hi);

  size_t dims() const { return lo_.size(); }
  bool empty() const;

  /// Lower / upper corner accessors.
  float lo(size_t d) const { return lo_[d]; }
  float hi(size_t d) const { return hi_[d]; }
  std::span<const float> lo() const { return lo_; }
  std::span<const float> hi() const { return hi_; }

  /// Expands this MBR to cover `point`.
  void Expand(std::span<const float> point);

  /// Expands this MBR to cover `other`.
  void Expand(const Mbr& other);

  /// Grows the box by `delta` in every direction (paper step: extend each
  /// MBR by ε/2 before the plane sweep).
  void Extend(float delta);

  /// Returns a copy grown by `delta` in every direction.
  Mbr Extended(float delta) const;

  /// True iff the boxes overlap (closed intervals) in every dimension.
  bool Intersects(const Mbr& other) const;

  /// True iff `point` lies inside this box (closed).
  bool Contains(std::span<const float> point) const;

  /// True iff `other` lies fully inside this box.
  bool Contains(const Mbr& other) const;

  /// The intersection box; empty() if the boxes do not overlap.
  Mbr Intersection(const Mbr& other) const;

  /// Exact minimum distance between any point of this box and any point of
  /// `other`, under `norm`. Zero when the boxes intersect. This is the
  /// lower-bounding distance predictor of Table 1: for any records x in
  /// this page and y in the other page, distance(x, y) >= MinDist.
  double MinDist(const Mbr& other, Norm norm) const;

  /// Exact minimum distance between `point` and this box under `norm`.
  double MinDist(std::span<const float> point, Norm norm) const;

  /// Squared L2 MINDIST: the sum of squared per-dimension gaps, with no
  /// square root. `MinDistSquared(o) == MinDist(o, kL2)²` (same gap terms,
  /// same accumulation order). Threshold filters compare this against
  /// threshold² and skip the sqrt entirely.
  double MinDistSquared(const Mbr& other) const;

  /// True iff `MinDist(other, norm) <= threshold`, computed without the L2
  /// sqrt and with per-dimension early exit (the accumulated gap statistic
  /// is monotone, so the scan stops as soon as it exceeds the threshold).
  /// For L2 the comparison is exactly `MinDistSquared(other) <= threshold²`
  /// — equivalent to the sqrt form except when threshold sits within one
  /// rounding step of the boundary, where the squared form is the more
  /// faithful one (no sqrt rounding on the statistic). This is the
  /// hot-filter form: every descent/sweep test of the shape
  /// `MinDist(...) > t` should use `!MinDistWithin(..., t)` instead.
  bool MinDistWithin(const Mbr& other, Norm norm, double threshold) const;

  /// Point variant of MinDistWithin; avoids materializing a degenerate
  /// point box (unlike `MinDist(point, norm)`, this never allocates).
  bool MinDistWithin(std::span<const float> point, Norm norm,
                     double threshold) const;

  /// Product of side lengths.
  double Area() const;

  /// Center coordinate along dimension `d`.
  double Center(size_t d) const;

  bool operator==(const Mbr& other) const;

  std::string ToString() const;

 private:
  std::vector<float> lo_;
  std::vector<float> hi_;
};

}  // namespace pmjoin

#endif  // PMJOIN_GEOM_MBR_H_
