#include "geom/mbr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace pmjoin {

Mbr::Mbr(size_t dims)
    : lo_(dims, std::numeric_limits<float>::max()),
      hi_(dims, std::numeric_limits<float>::lowest()) {}

Mbr Mbr::FromPoint(std::span<const float> point) {
  Mbr m(point.size());
  m.Expand(point);
  return m;
}

Mbr Mbr::FromBounds(std::vector<float> lo, std::vector<float> hi) {
  assert(lo.size() == hi.size());
  Mbr m(lo.size());
  m.lo_ = std::move(lo);
  m.hi_ = std::move(hi);
  for (size_t d = 0; d < m.dims(); ++d) assert(m.lo_[d] <= m.hi_[d]);
  return m;
}

bool Mbr::empty() const {
  for (size_t d = 0; d < dims(); ++d) {
    if (lo_[d] > hi_[d]) return true;
  }
  return dims() == 0;
}

void Mbr::Expand(std::span<const float> point) {
  assert(point.size() == dims());
  for (size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], point[d]);
    hi_[d] = std::max(hi_[d], point[d]);
  }
}

void Mbr::Expand(const Mbr& other) {
  assert(other.dims() == dims());
  if (other.empty()) return;
  for (size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], other.lo_[d]);
    hi_[d] = std::max(hi_[d], other.hi_[d]);
  }
}

void Mbr::Extend(float delta) {
  for (size_t d = 0; d < dims(); ++d) {
    lo_[d] -= delta;
    hi_[d] += delta;
  }
}

Mbr Mbr::Extended(float delta) const {
  Mbr m = *this;
  m.Extend(delta);
  return m;
}

bool Mbr::Intersects(const Mbr& other) const {
  assert(other.dims() == dims());
  for (size_t d = 0; d < dims(); ++d) {
    if (lo_[d] > other.hi_[d] || other.lo_[d] > hi_[d]) return false;
  }
  return true;
}

bool Mbr::Contains(std::span<const float> point) const {
  assert(point.size() == dims());
  for (size_t d = 0; d < dims(); ++d) {
    if (point[d] < lo_[d] || point[d] > hi_[d]) return false;
  }
  return true;
}

bool Mbr::Contains(const Mbr& other) const {
  assert(other.dims() == dims());
  for (size_t d = 0; d < dims(); ++d) {
    if (other.lo_[d] < lo_[d] || other.hi_[d] > hi_[d]) return false;
  }
  return true;
}

Mbr Mbr::Intersection(const Mbr& other) const {
  assert(other.dims() == dims());
  Mbr m(dims());
  for (size_t d = 0; d < dims(); ++d) {
    m.lo_[d] = std::max(lo_[d], other.lo_[d]);
    m.hi_[d] = std::min(hi_[d], other.hi_[d]);
  }
  return m;
}

double Mbr::MinDist(const Mbr& other, Norm norm) const {
  assert(other.dims() == dims());
  switch (norm) {
    case Norm::kL1: {
      double sum = 0.0;
      for (size_t d = 0; d < dims(); ++d) {
        const double gap =
            std::max({0.0, double(lo_[d]) - other.hi_[d],
                      double(other.lo_[d]) - hi_[d]});
        sum += gap;
      }
      return sum;
    }
    case Norm::kL2: {
      double sum = 0.0;
      for (size_t d = 0; d < dims(); ++d) {
        const double gap =
            std::max({0.0, double(lo_[d]) - other.hi_[d],
                      double(other.lo_[d]) - hi_[d]});
        sum += gap * gap;
      }
      return std::sqrt(sum);
    }
    case Norm::kLInf: {
      double mx = 0.0;
      for (size_t d = 0; d < dims(); ++d) {
        const double gap =
            std::max({0.0, double(lo_[d]) - other.hi_[d],
                      double(other.lo_[d]) - hi_[d]});
        mx = std::max(mx, gap);
      }
      return mx;
    }
  }
  return 0.0;
}

double Mbr::MinDist(std::span<const float> point, Norm norm) const {
  return MinDist(Mbr::FromPoint(point), norm);
}

double Mbr::MinDistSquared(const Mbr& other) const {
  assert(other.dims() == dims());
  double sum = 0.0;
  for (size_t d = 0; d < dims(); ++d) {
    const double gap = std::max({0.0, double(lo_[d]) - other.hi_[d],
                                 double(other.lo_[d]) - hi_[d]});
    sum += gap * gap;
  }
  return sum;
}

namespace {

/// Shared accumulator for the MinDistWithin variants. `GapFn(d)` returns
/// the per-dimension gap; the accumulation matches MinDist (same gap
/// terms, same order) and L2 compares in squared space, so no sqrt is
/// ever paid. The partial statistic is monotone nondecreasing, which
/// makes the early exit exact with respect to the full-sum comparison.
template <typename GapFn>
bool GapsWithin(size_t dims, Norm norm, double threshold, GapFn gap_of) {
  switch (norm) {
    case Norm::kL1: {
      double sum = 0.0;
      for (size_t d = 0; d < dims; ++d) {
        sum += gap_of(d);
        if (sum > threshold) return false;
      }
      return true;
    }
    case Norm::kL2: {
      const double threshold_sq = threshold * threshold;
      double sum = 0.0;
      for (size_t d = 0; d < dims; ++d) {
        const double gap = gap_of(d);
        sum += gap * gap;
        if (sum > threshold_sq) return false;
      }
      return true;
    }
    case Norm::kLInf: {
      for (size_t d = 0; d < dims; ++d) {
        if (gap_of(d) > threshold) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

bool Mbr::MinDistWithin(const Mbr& other, Norm norm,
                        double threshold) const {
  assert(other.dims() == dims());
  return GapsWithin(dims(), norm, threshold, [&](size_t d) {
    return std::max({0.0, double(lo_[d]) - other.hi_[d],
                     double(other.lo_[d]) - hi_[d]});
  });
}

bool Mbr::MinDistWithin(std::span<const float> point, Norm norm,
                        double threshold) const {
  assert(point.size() == dims());
  return GapsWithin(dims(), norm, threshold, [&](size_t d) {
    return std::max({0.0, double(lo_[d]) - point[d],
                     double(point[d]) - hi_[d]});
  });
}

double Mbr::Area() const {
  if (empty()) return 0.0;
  double area = 1.0;
  for (size_t d = 0; d < dims(); ++d) area *= double(hi_[d]) - lo_[d];
  return area;
}

double Mbr::Center(size_t d) const { return 0.5 * (double(lo_[d]) + hi_[d]); }

bool Mbr::operator==(const Mbr& other) const {
  return lo_ == other.lo_ && hi_ == other.hi_;
}

std::string Mbr::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t d = 0; d < dims(); ++d) {
    if (d) os << ", ";
    os << lo_[d] << ".." << hi_[d];
  }
  os << "]";
  return os.str();
}

}  // namespace pmjoin
