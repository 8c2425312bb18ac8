#include "data/sequence_dataset.h"

#include "data/generators.h"

namespace pmjoin {

Result<StringSequenceStore> BuildDnaStore(StorageBackend* disk,
                                          std::string_view name,
                                          const DnaStoreParams& params) {
  std::vector<uint8_t> seq =
      GenDnaSequence(params.length, params.seed, params.repeat_fraction,
                     params.mutation_rate);
  return StringSequenceStore::Build(disk, name, std::move(seq),
                                    /*alphabet_size=*/4, params.window_len,
                                    params.page_size_bytes);
}

}  // namespace pmjoin
