// Stock subsequence join — the paper's sequence motivating query (§1/§3):
//
//   "Find all pairs of companies from the New York Exchange and the Tokyo
//    Exchange that have similar closing prices for one month."
//
// Two exchanges are simulated as collections of random-walk price series
// concatenated into one sequence per exchange (a common layout for tick
// archives); a subsequence join with L = 20 trading days finds all window
// pairs within ε in L2 after per-window normalization is approximated by
// using log-ish volatility scaling in the generator.
//
//   ./examples/stock_subsequence_join

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/join_driver.h"
#include "data/generators.h"
#include "io/simulated_disk.h"
#include "seq/sequence_store.h"

int main() {
  using namespace pmjoin;
  constexpr uint32_t kMonth = 20;    // Trading days in a month.
  constexpr uint32_t kPaaDims = 5;   // Must divide kMonth.
  constexpr double kEps = 1.5;       // Price-distance threshold.

  SimulatedDisk disk;
  // Each exchange: 40 tickers x 750 days, concatenated. Every ticker
  // trades at its own price level (otherwise all walks start equal and
  // everything joins with everything in the first weeks).
  auto build_exchange = [](uint64_t seed) {
    Rng levels(seed);
    std::vector<float> prices;
    for (int ticker = 0; ticker < 40; ++ticker) {
      std::vector<float> series =
          GenRandomWalk(750, seed * 1000 + ticker, /*volatility=*/0.012);
      const float scale =
          static_cast<float>(levels.UniformDouble(0.2, 6.0));
      for (float& v : series) v *= scale;
      prices.insert(prices.end(), series.begin(), series.end());
    }
    return prices;
  };
  std::vector<float> nyse_prices = build_exchange(1);
  std::vector<float> tokyo_prices = build_exchange(2);
  // Plant one dual-listed company: Tokyo ticker 7 tracks NYSE ticker 3
  // with small idiosyncratic noise — the pair the query should surface.
  {
    Rng noise(77);
    for (size_t day = 0; day < 750; ++day) {
      tokyo_prices[7 * 750 + day] = static_cast<float>(
          nyse_prices[3 * 750 + day] * (1.0 + noise.Gaussian(0.0, 0.001)));
    }
  }
  auto nyse = TimeSeriesStore::Build(&disk, "NYSE", std::move(nyse_prices),
                                     kPaaDims, kMonth, 4096);
  auto tokyo = TimeSeriesStore::Build(&disk, "Tokyo",
                                      std::move(tokyo_prices), kPaaDims,
                                      kMonth, 4096);
  if (!nyse.ok() || !tokyo.ok()) {
    std::fprintf(stderr, "store build failed\n");
    return 1;
  }

  std::printf("Stock subsequence join: %llu x %llu windows of %u days\n",
              (unsigned long long)nyse->layout().NumWindows(),
              (unsigned long long)tokyo->layout().NumWindows(), kMonth);

  JoinDriver driver(&disk);
  JoinOptions options;
  options.algorithm = Algorithm::kSc;
  options.buffer_pages = 64;
  CollectingSink sink;
  auto report = driver.RunTimeSeries(*nyse, *tokyo, kEps, options, &sink);
  if (!report.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("matched window pairs: %zu\n", sink.pairs().size());
  std::printf("matrix: %llu marked of %llu page pairs (%.1f%%), "
              "%llu clusters\n",
              (unsigned long long)report->marked_entries,
              (unsigned long long)(report->matrix_rows *
                                   report->matrix_cols),
              100.0 * report->matrix_selectivity,
              (unsigned long long)report->num_clusters);
  std::printf("io: %llu pages, %.3f modeled seconds total\n",
              (unsigned long long)report->io.pages_read,
              report->TotalSeconds());

  // Show a few matches, decoded back to (ticker, day).
  const uint64_t per_ticker = 750;
  size_t shown = 0;
  for (const auto& [a, b] : sink.pairs()) {
    if (shown >= 5) break;
    // Skip windows straddling two tickers' concatenation boundary.
    if (a % per_ticker + kMonth > per_ticker) continue;
    if (b % per_ticker + kMonth > per_ticker) continue;
    std::printf("  NYSE ticker %llu day %llu  ~  Tokyo ticker %llu day"
                " %llu\n",
                (unsigned long long)(a / per_ticker),
                (unsigned long long)(a % per_ticker),
                (unsigned long long)(b / per_ticker),
                (unsigned long long)(b % per_ticker));
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (matches exist only across ticker boundaries at this"
                " ε; raise kEps to see in-ticker samples)\n");
  }
  return 0;
}
