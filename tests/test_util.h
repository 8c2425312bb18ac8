#ifndef PMJOIN_TESTS_TEST_UTIL_H_
#define PMJOIN_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/pair_sink.h"
#include "common/rng.h"
#include "geom/mbr.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "io/storage_backend.h"

namespace pmjoin {
namespace testing_util {

/// Storage backend factory honoring the PMJOIN_TEST_BACKEND environment
/// variable: unset or "sim" builds a SimulatedDisk; "file" builds a
/// FileBackend over a fresh scratch directory under the gtest temp dir.
/// CI's file-backend job exports PMJOIN_TEST_BACKEND=file so the whole
/// suite re-runs its modeled-I/O assertions against real files — the
/// counters must not change, which is exactly the backend-determinism
/// invariant.
inline std::unique_ptr<StorageBackend> MakeTestBackend(
    DiskModel model = DiskModel(),
    uint32_t page_size_bytes = kDefaultPageSizeBytes) {
  const char* kind = std::getenv("PMJOIN_TEST_BACKEND");
  if (kind == nullptr || std::string_view(kind) != "file")
    return std::make_unique<SimulatedDisk>(model, page_size_bytes);
  static std::atomic<uint64_t> counter{0};
  const std::string dir = ::testing::TempDir() + "pmjoin-backend-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  FileBackend::Options options;
  options.model = model;
  options.page_size_bytes = page_size_bytes;
  auto opened = FileBackend::Open(dir, options);
  PMJOIN_CHECK(opened.ok());
  return std::move(opened).value();
}

/// A random box in [0,1]^dims with side lengths up to `max_side`.
inline Mbr RandomBox(Rng* rng, size_t dims, double max_side = 0.2) {
  std::vector<float> lo(dims), hi(dims);
  for (size_t d = 0; d < dims; ++d) {
    const double a = rng->UniformDouble();
    const double b = a + rng->UniformDouble() * max_side;
    lo[d] = static_cast<float>(a);
    hi[d] = static_cast<float>(b);
  }
  return Mbr::FromBounds(std::move(lo), std::move(hi));
}

/// A random point in [0,1]^dims.
inline std::vector<float> RandomPoint(Rng* rng, size_t dims) {
  std::vector<float> p(dims);
  for (float& v : p) v = static_cast<float>(rng->UniformDouble());
  return p;
}

/// Random symbol string over [0, alphabet).
inline std::vector<uint8_t> RandomString(Rng* rng, size_t length,
                                         uint32_t alphabet) {
  std::vector<uint8_t> s(length);
  for (uint8_t& c : s) c = static_cast<uint8_t>(rng->Uniform(alphabet));
  return s;
}

/// Random float series in [0, 1).
inline std::vector<float> RandomSeries(Rng* rng, size_t length) {
  std::vector<float> s(length);
  for (float& v : s) v = static_cast<float>(rng->UniformDouble());
  return s;
}

/// Sorted, deduplicated pair list of a sink.
inline std::vector<std::pair<uint64_t, uint64_t>> SortedPairs(
    const CollectingSink& sink) {
  return sink.Sorted();
}

}  // namespace testing_util
}  // namespace pmjoin

#endif  // PMJOIN_TESTS_TEST_UTIL_H_
