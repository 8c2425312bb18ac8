#include "geom/distance.h"

#include <algorithm>
#include <cassert>

namespace pmjoin {

std::string NormName(Norm norm) {
  switch (norm) {
    case Norm::kL1:
      return "L1";
    case Norm::kL2:
      return "L2";
    case Norm::kLInf:
      return "Linf";
  }
  return "?";
}

double VectorDistance(std::span<const float> a, std::span<const float> b,
                      Norm norm) {
  assert(a.size() == b.size());
  const size_t n = a.size();
  switch (norm) {
    case Norm::kL1: {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += std::fabs(double(a[i]) - b[i]);
      return sum;
    }
    case Norm::kL2: {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = double(a[i]) - b[i];
        sum += d * d;
      }
      return std::sqrt(sum);
    }
    case Norm::kLInf: {
      double mx = 0.0;
      for (size_t i = 0; i < n; ++i)
        mx = std::max(mx, std::fabs(double(a[i]) - b[i]));
      return mx;
    }
  }
  return 0.0;
}

double DistanceStat(std::span<const float> a, std::span<const float> b,
                    Norm norm) {
  assert(a.size() == b.size());
  const size_t n = a.size();
  switch (norm) {
    case Norm::kL1: {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += std::fabs(double(a[i]) - b[i]);
      return sum;
    }
    case Norm::kL2: {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = double(a[i]) - b[i];
        sum += d * d;
      }
      return sum;
    }
    case Norm::kLInf: {
      double mx = 0.0;
      for (size_t i = 0; i < n; ++i)
        mx = std::max(mx, std::fabs(double(a[i]) - b[i]));
      return mx;
    }
  }
  return 0.0;
}

bool WithinDistance(std::span<const float> a, std::span<const float> b,
                    Norm norm, double eps) {
  assert(a.size() == b.size());
  const size_t n = a.size();
  switch (norm) {
    case Norm::kL1: {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum += std::fabs(double(a[i]) - b[i]);
        if (sum > eps) return false;
      }
      return true;
    }
    case Norm::kL2: {
      const double eps2 = eps * eps;
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = double(a[i]) - b[i];
        sum += d * d;
        if (sum > eps2) return false;
      }
      return true;
    }
    case Norm::kLInf: {
      for (size_t i = 0; i < n; ++i) {
        if (std::fabs(double(a[i]) - b[i]) > eps) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace pmjoin
