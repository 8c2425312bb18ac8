#ifndef PMJOIN_SERVER_JOB_H_
#define PMJOIN_SERVER_JOB_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/join_driver.h"

namespace pmjoin {
namespace server {

/// A dataset reference in a job line: `<gen>/<n>/<seed>[/<dims>]`, e.g.
/// "road/2000/7" or "uniform/1000/3/8". The spec fully determines the
/// dataset (the generators are deterministic in their arguments), so its
/// canonical form doubles as the artifact-cache key and the storage
/// backend file name.
///
/// Generators: `road` (2-d road-network points; dims fixed at 2),
/// `clusters` (correlated Gaussian clusters), `uniform` (uniform
/// hypercube). `clusters` and `uniform` default to 8 dimensions when the
/// fourth segment is omitted.
struct DatasetSpec {
  enum class Kind { kRoad, kClusters, kUniform };

  /// Largest accepted n × dims (2^28 coordinates, 1 GiB of floats): a job
  /// line must not be able to make Generate allocate without bound.
  static constexpr uint64_t kMaxCoordinates = uint64_t(1) << 28;

  Kind kind = Kind::kRoad;
  uint64_t n = 0;
  uint64_t seed = 0;
  uint32_t dims = 2;

  /// Parses the `<gen>/<n>/<seed>[/<dims>]` grammar. Fails with
  /// InvalidArgument naming the offending segment, or the limit when
  /// n × dims exceeds kMaxCoordinates.
  static Result<DatasetSpec> Parse(const std::string& text);

  /// Normalized key, also a legal backend file name (no '/'):
  /// "road-2000-7", "uniform-1000-3-d8". Two specs denote the same
  /// dataset iff their canonical forms match.
  std::string Canonical() const;

  /// Materializes the spec's records (deterministic in the spec).
  VectorData Generate() const;
};

/// Parses a non-negative decimal integer: digits only (no sign, space or
/// suffix), at most UINT64_MAX. Dataset-spec segments and the numeric
/// flags of pmjoin_cli and pmjoin_server use it.
Status ParseUint(const std::string& text, uint64_t* out);

/// One parsed `submit` line. Unset optional knobs are 0 and resolved to
/// the server defaults at admission.
struct JobSpec {
  /// Client-chosen query id; the server assigns "q<seq>" when empty.
  std::string id;
  std::string r;  ///< DatasetSpec text for the outer input.
  std::string s;  ///< DatasetSpec text for the inner input.
  double eps = 0.0;
  Algorithm engine = Algorithm::kSc;
  uint32_t buffer_pages = 0;  ///< 0 = server default.
  uint32_t num_threads = 0;   ///< 0 = server default.
  /// 0 = ε-join (eps required); >= 1 = kNN join with this k (eps and
  /// engine must be absent — the kNN engine is its own query type).
  uint32_t k = 0;
};

/// Parses an engine token ("nlj", "pm-nlj", "rand-sc", "sc", "cc";
/// case-insensitive). Only the matrix family is served — the competitor
/// algorithms (ego/bfrj) build private per-run structures that defeat
/// the server's artifact sharing, so they are rejected here.
Result<Algorithm> ParseEngine(const std::string& text);

/// Lowercase job-file token for `algorithm` (inverse of ParseEngine).
std::string EngineToken(Algorithm algorithm);

/// Parses one newline-delimited-JSON job line:
///
///   {"cmd": "submit", "r": "road/2000/7", "s": "road/2000/8",
///    "eps": 0.01, "engine": "sc"}
///
/// Recognized keys: cmd (optional, must be "submit"), id, r, s, eps,
/// engine, buffer_pages, threads, k. `r` and `s` are always
/// required; exactly one of `eps` (ε-join) or `k` (kNN join) must be
/// present, and `engine` only applies to ε-joins. Unknown keys are
/// rejected by name — a typo must not run the wrong query shape.
/// Returns nullopt for blank lines and `#` comments. The JSON subset is
/// flat (scalar values only) — see docs/SERVER.md for the grammar.
Result<std::optional<JobSpec>> ParseJobLine(const std::string& line);

/// Parses a whole job stream, one line at a time, skipping blanks and
/// comments. Fails on the first malformed line, naming its line number.
Result<std::vector<JobSpec>> ParseJobStream(std::istream& in);

}  // namespace server
}  // namespace pmjoin

#endif  // PMJOIN_SERVER_JOB_H_
