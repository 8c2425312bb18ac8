#ifndef PMJOIN_DATA_SEQUENCE_DATASET_H_
#define PMJOIN_DATA_SEQUENCE_DATASET_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "io/storage_backend.h"
#include "seq/sequence_store.h"

namespace pmjoin {

/// Convenience builder wiring the synthetic genome generator
/// (data/generators.h) to the paged string store (seq/sequence_store.h).

struct DnaStoreParams {
  size_t length = 0;
  uint64_t seed = 1;
  /// Subsequence (window) length L; the paper's genome query uses 500.
  uint32_t window_len = 500;
  uint32_t page_size_bytes = 4096;
  double repeat_fraction = 0.30;
  double mutation_rate = 0.02;
};

/// Builds a DNA StringSequenceStore from the synthetic genome generator.
Result<StringSequenceStore> BuildDnaStore(StorageBackend* disk,
                                          std::string_view name,
                                          const DnaStoreParams& params);

}  // namespace pmjoin

#endif  // PMJOIN_DATA_SEQUENCE_DATASET_H_
