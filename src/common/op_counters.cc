#include "common/op_counters.h"

#include <sstream>

namespace pmjoin {

OpCounters& OpCounters::operator+=(const OpCounters& other) {
  distance_terms += other.distance_terms;
  filter_checks += other.filter_checks;
  edit_cells += other.edit_cells;
  mbr_tests += other.mbr_tests;
  cluster_ops += other.cluster_ops;
  result_pairs += other.result_pairs;
  return *this;
}

OpCounters OpCounters::Delta(const OpCounters& start) const {
  OpCounters d;
  d.distance_terms = distance_terms - start.distance_terms;
  d.filter_checks = filter_checks - start.filter_checks;
  d.edit_cells = edit_cells - start.edit_cells;
  d.mbr_tests = mbr_tests - start.mbr_tests;
  d.cluster_ops = cluster_ops - start.cluster_ops;
  d.result_pairs = result_pairs - start.result_pairs;
  return d;
}

ShardedOpCounters::ShardedOpCounters(size_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      shards_(new PaddedCounters[num_shards_]) {}

void ShardedOpCounters::DrainInto(OpCounters* total) {
  for (size_t i = 0; i < num_shards_; ++i) {
    if (total != nullptr) *total += shards_[i].counters;
    shards_[i].counters.Reset();
  }
}

std::string OpCounters::ToString() const {
  std::ostringstream os;
  os << "dist_terms=" << distance_terms << " filter_checks=" << filter_checks
     << " edit_cells=" << edit_cells << " mbr_tests=" << mbr_tests
     << " cluster_ops=" << cluster_ops << " result_pairs=" << result_pairs;
  return os.str();
}

}  // namespace pmjoin
