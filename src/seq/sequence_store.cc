#include "seq/sequence_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "io/wire.h"
#include "seq/edit_distance.h"
#include "seq/frequency_vector.h"

namespace pmjoin {

// --- Strings ---------------------------------------------------------------

Status StringKind::CheckInput(std::span<const Symbol> symbols,
                              uint32_t feature_dims, uint32_t) {
  if (feature_dims == 0 || feature_dims > 256)
    return Status::InvalidArgument("SequenceStore: bad alphabet size");
  for (const Symbol c : symbols) {
    if (c >= feature_dims)
      return Status::InvalidArgument("SequenceStore: symbol outside alphabet");
  }
  return Status::OK();
}

StringKind::WindowFeatures::WindowFeatures(std::span<const Symbol> symbols,
                                           uint32_t feature_dims,
                                           uint32_t window_len)
    : symbols_(symbols),
      window_len_(window_len),
      freq_(BuildFrequencyVector(symbols.subspan(0, window_len),
                                 feature_dims)) {}

void StringKind::WindowFeatures::Next(std::span<float> out) {
  for (size_t c = 0; c < freq_.size(); ++c)
    out[c] = static_cast<float>(freq_[c]);
  if (w_ + window_len_ < symbols_.size()) {
    --freq_[symbols_[w_]];
    ++freq_[symbols_[w_ + window_len_]];
  }
  ++w_;
}

void StringKind::MaterializeWindows(std::span<const Symbol> symbols,
                                    uint32_t feature_dims, uint32_t window_len,
                                    std::vector<float>* out, OpCounters* ops) {
  const uint64_t n = symbols.size() - window_len + 1;
  out->resize(n * feature_dims);
  WindowFeatures features(symbols, feature_dims, window_len);
  for (uint64_t w = 0; w < n; ++w) {
    features.Next(std::span<float>(out->data() + w * feature_dims,
                                   feature_dims));
    if (ops != nullptr) ++ops->filter_checks;
  }
}

bool StringKind::WindowsMatch(std::span<const Symbol> x,
                              std::span<const Symbol> y, Threshold threshold,
                              OpCounters* ops) {
  return BandedEditDistance(x, y, threshold, ops) <= threshold;
}

// --- Time series -----------------------------------------------------------

Status SeriesKind::CheckInput(std::span<const Symbol> values,
                              uint32_t feature_dims, uint32_t window_len) {
  if (feature_dims == 0 || window_len % feature_dims != 0)
    return Status::InvalidArgument(
        "SequenceStore: paa_dims must divide window_len");
  for (const Symbol v : values) {
    if (!std::isfinite(v))
      return Status::InvalidArgument("SequenceStore: non-finite value");
  }
  return Status::OK();
}

SeriesKind::WindowFeatures::WindowFeatures(std::span<const Symbol> values,
                                           uint32_t feature_dims,
                                           uint32_t window_len)
    : prefix_(values.size() + 1, 0.0), segment_(window_len / feature_dims) {
  for (size_t i = 0; i < values.size(); ++i)
    prefix_[i + 1] = prefix_[i] + values[i];
}

void SeriesKind::WindowFeatures::Next(std::span<float> out) {
  for (size_t k = 0; k < out.size(); ++k) {
    const uint64_t s = w_ + uint64_t(k) * segment_;
    out[k] = static_cast<float>((prefix_[s + segment_] - prefix_[s]) /
                                segment_);
  }
  ++w_;
}

void SeriesKind::MaterializeWindows(std::span<const Symbol> values,
                                    uint32_t feature_dims, uint32_t window_len,
                                    std::vector<float>* out, OpCounters* ops) {
  // PaaTransform per window, not the store's prefix sums: the two can
  // differ in the last float bit, which can move a window across an EGO
  // grid-cell boundary.
  const uint64_t n = values.size() - window_len + 1;
  out->resize(n * feature_dims);
  for (uint64_t w = 0; w < n; ++w) {
    PaaTransform(values.subspan(w, window_len), feature_dims,
                 std::span<float>(out->data() + w * feature_dims,
                                  feature_dims));
    if (ops != nullptr) ops->filter_checks += window_len;
  }
}

bool SeriesKind::WindowsMatch(std::span<const Symbol> x,
                              std::span<const Symbol> y, Threshold threshold,
                              OpCounters* ops) {
  if (ops != nullptr) ops->distance_terms += x.size();
  const double eps2 = threshold * threshold;
  double sq = 0.0;
  for (size_t t = 0; t < x.size(); ++t) {
    const double d = double(x[t]) - y[t];
    sq += d * d;
    if (sq > eps2) break;
  }
  return sq <= eps2;
}

// --- The store ---------------------------------------------------------------

namespace {

/// The layout of `num_symbols` symbols in pages of `capacity` symbols, or
/// InvalidArgument when no layout fits.
Result<SequenceLayout> MakeLayout(uint64_t num_symbols, uint32_t window_len,
                                  uint32_t capacity, uint32_t sub_box_windows) {
  // The coarse width 4·T must fit its uint32_t.
  if (sub_box_windows == 0 || sub_box_windows >= (uint32_t(1) << 30))
    return Status::InvalidArgument("SequenceStore: T must be in [1, 2^30)");
  if (window_len == 0)
    return Status::InvalidArgument("SequenceStore: window_len == 0");
  if (num_symbols < window_len)
    return Status::InvalidArgument(
        "SequenceStore: sequence shorter than window");
  if (capacity <= window_len - 1)
    return Status::InvalidArgument(
        "SequenceStore: page too small for window tail replication");
  SequenceLayout layout;
  layout.num_symbols = num_symbols;
  layout.window_len = window_len;
  layout.windows_per_page = capacity - (window_len - 1);
  layout.windows_per_sub_box = sub_box_windows;
  layout.windows_per_coarse_box = 4 * sub_box_windows;
  if ((layout.NumWindows() - 1) / layout.windows_per_page >= UINT32_MAX)
    return Status::InvalidArgument("SequenceStore: too many pages");
  return layout;
}

/// Number of symbols page p holds: its block plus the replicated tail,
/// clipped at the end of the sequence.
uint64_t PageSymbolCount(const SequenceLayout& layout, uint32_t page) {
  const uint64_t start = uint64_t(page) * layout.windows_per_page;
  const uint64_t cap =
      uint64_t(layout.windows_per_page) + layout.window_len - 1;
  return std::min<uint64_t>(cap, layout.num_symbols - start);
}

/// Builds the coarse level of a page's summaries as unions of consecutive
/// fine sub-boxes.
void BuildCoarseLevel(const SequenceLayout& layout, uint32_t page,
                      const std::vector<Mbr>& sub_mbrs,
                      uint32_t page_sub_offset, size_t dims,
                      std::vector<Mbr>* coarse_mbrs,
                      std::vector<uint32_t>* coarse_offsets) {
  coarse_offsets->push_back(static_cast<uint32_t>(coarse_mbrs->size()));
  for (uint32_t cb = 0; cb < layout.CoarseBoxCount(page); ++cb) {
    uint32_t lo, hi;
    layout.CoarseToFine(page, cb, &lo, &hi);
    Mbr box(dims);
    for (uint32_t b = lo; b < hi; ++b) {
      box.Expand(sub_mbrs[page_sub_offset + b]);
    }
    coarse_mbrs->push_back(std::move(box));
  }
}

}  // namespace

template <typename Kind>
Result<SequenceStore<Kind>> SequenceStore<Kind>::Build(
    StorageBackend* disk, std::string_view name, std::vector<Symbol> symbols,
    uint32_t feature_dims, uint32_t window_len, uint32_t page_size_bytes,
    uint32_t sub_box_windows) {
  if (disk == nullptr)
    return Status::InvalidArgument("SequenceStore: null disk");
  PMJOIN_ASSIGN_OR_RETURN(
      SequenceStore store,
      Assemble(std::move(symbols), feature_dims, window_len, page_size_bytes,
               sub_box_windows));
  store.file_id_ = disk->CreateFile(name, store.layout_.NumPages());
  store.tree_.AttachFile(disk, std::string(name) + ".idx");
  return store;
}

template <typename Kind>
Result<SequenceStore<Kind>> SequenceStore<Kind>::Assemble(
    std::vector<Symbol> symbols, uint32_t feature_dims, uint32_t window_len,
    uint32_t page_size_bytes, uint32_t sub_box_windows) {
  SequenceStore store;
  PMJOIN_ASSIGN_OR_RETURN(
      store.layout_,
      MakeLayout(symbols.size(), window_len, page_size_bytes / sizeof(Symbol),
                 sub_box_windows));
  PMJOIN_RETURN_IF_ERROR(Kind::CheckInput(symbols, feature_dims, window_len));
  store.feature_dims_ = feature_dims;
  store.symbols_ = std::move(symbols);

  const SequenceLayout& layout = store.layout_;
  const uint32_t num_pages = layout.NumPages();
  store.page_mbrs_.reserve(num_pages);

  // One feature point per window, in window order: per-page MBR plus the
  // sub-box MBRs (multi-resolution summaries) over the windows' features.
  typename Kind::WindowFeatures features(store.symbols_, feature_dims,
                                         window_len);
  std::vector<float> point(feature_dims);
  store.sub_offsets_.reserve(num_pages + 1);
  for (uint32_t p = 0; p < num_pages; ++p) {
    store.sub_offsets_.push_back(
        static_cast<uint32_t>(store.sub_mbrs_.size()));
    Mbr mbr(feature_dims);
    Mbr sub(feature_dims);
    uint32_t in_sub = 0;
    for (uint32_t i = 0; i < layout.WindowCount(p); ++i) {
      features.Next(point);
      mbr.Expand(point);
      sub.Expand(point);
      if (++in_sub == layout.windows_per_sub_box) {
        store.sub_mbrs_.push_back(sub);
        sub = Mbr(feature_dims);
        in_sub = 0;
      }
    }
    if (in_sub > 0) store.sub_mbrs_.push_back(sub);
    store.page_mbrs_.push_back(std::move(mbr));
    BuildCoarseLevel(layout, p, store.sub_mbrs_, store.sub_offsets_[p],
                     feature_dims, &store.coarse_mbrs_, &store.coarse_offsets_);
  }
  store.sub_offsets_.push_back(
      static_cast<uint32_t>(store.sub_mbrs_.size()));
  store.coarse_offsets_.push_back(
      static_cast<uint32_t>(store.coarse_mbrs_.size()));

  std::vector<RStarTree::Entry> leaves;
  leaves.reserve(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p)
    leaves.push_back(RStarTree::Entry{store.page_mbrs_[p], p});
  store.tree_ = RStarTree::BulkLoadStr(feature_dims, std::move(leaves));
  return store;
}

template <typename Kind>
Status SequenceStore<Kind>::Persist(StorageBackend* disk) const {
  if (disk == nullptr)
    return Status::InvalidArgument("Persist: null backend");
  if (file_id_ >= disk->NumFiles() ||
      disk->num_pages(file_id_) != layout_.NumPages())
    return Status::InvalidArgument(
        "Persist: store was not built on this backend");
  const uint64_t page_bytes =
      (uint64_t(layout_.windows_per_page) + layout_.window_len - 1) *
      sizeof(Symbol);
  if (page_bytes > disk->page_size_bytes())
    return Status::InvalidArgument(
        "Persist: store page does not fit a backend page");
  for (uint32_t p = 0; p < layout_.NumPages(); ++p) {
    const uint64_t start = uint64_t(p) * layout_.windows_per_page;
    PMJOIN_RETURN_IF_ERROR(disk->WritePagePayload(
        {file_id_, p},
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(symbols_.data() + start),
            PageSymbolCount(layout_, p) * sizeof(Symbol))));
  }
  std::vector<uint8_t> meta;
  wire::AppendU64(&meta, Kind::kMagic);
  wire::AppendU32(&meta, feature_dims_);
  wire::AppendU32(&meta, layout_.window_len);
  wire::AppendU32(&meta, static_cast<uint32_t>(page_bytes));
  wire::AppendU32(&meta, layout_.windows_per_sub_box);
  wire::AppendU64(&meta, layout_.num_symbols);
  const std::string& name = disk->file(file_id_).name;
  PMJOIN_ASSIGN_OR_RETURN(uint32_t meta_file,
                          WriteBlobFile(disk, name + ".meta", meta));
  (void)meta_file;
  return disk->Sync();
}

template <typename Kind>
Result<SequenceStore<Kind>> SequenceStore<Kind>::Open(StorageBackend* disk,
                                                      std::string_view name) {
  if (disk == nullptr) return Status::InvalidArgument("Open: null backend");
  PMJOIN_ASSIGN_OR_RETURN(uint32_t meta_file,
                          disk->FindFile(std::string(name) + ".meta"));
  PMJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                          ReadFileBlob(disk, meta_file));
  wire::Reader r{std::span<const uint8_t>(blob)};
  if (r.U64() != Kind::kMagic)
    return Status::Corruption("SequenceStore: bad metadata magic");
  const uint32_t feature_dims = r.U32();
  const uint32_t window_len = r.U32();
  const uint32_t page_size_bytes = r.U32();
  const uint32_t sub_box_windows = r.U32();
  const uint64_t num_symbols = r.U64();
  if (!r.ok) return Status::Corruption("SequenceStore: truncated metadata");
  // The geometry is checked before anything is sized by it.
  Result<SequenceLayout> layout =
      MakeLayout(num_symbols, window_len, page_size_bytes / sizeof(Symbol),
                 sub_box_windows);
  if (!layout.ok()) return Status::Corruption(layout.status().message());
  PMJOIN_ASSIGN_OR_RETURN(uint32_t data_file, disk->FindFile(name));
  if (disk->num_pages(data_file) < layout->NumPages())
    return Status::Corruption("SequenceStore: data file too short");
  if (page_size_bytes > disk->page_size_bytes())
    return Status::Corruption(
        "SequenceStore: store page exceeds backend page");

  std::vector<Symbol> symbols(num_symbols);
  std::vector<uint8_t> payload(disk->page_size_bytes());
  for (uint32_t p = 0; p < layout->NumPages(); ++p) {
    PMJOIN_RETURN_IF_ERROR(disk->ReadPagePayload({data_file, p}, payload));
    const uint64_t start = uint64_t(p) * layout->windows_per_page;
    std::memcpy(symbols.data() + start, payload.data(),
                PageSymbolCount(*layout, p) * sizeof(Symbol));
  }
  Result<SequenceStore> store =
      Assemble(std::move(symbols), feature_dims, window_len, page_size_bytes,
               sub_box_windows);
  if (!store.ok()) return Status::Corruption(store.status().message());
  store->file_id_ = data_file;
  store->tree_.AttachFile(disk, std::string(name) + ".idx");
  return store;
}

template <typename Kind>
double SequenceStore<Kind>::PageLowerBound(uint32_t p,
                                           const SequenceStore& other,
                                           uint32_t q) const {
  // MINDIST between feature MBRs lower-bounds the feature distance of
  // every window pair; the kind's contraction factor maps it to raw
  // distance.
  return Kind::FeatureScale(layout_.window_len, feature_dims_) *
         page_mbrs_[p].MinDist(other.page_mbrs_[q], Kind::kNorm);
}

template class SequenceStore<StringKind>;
template class SequenceStore<SeriesKind>;

}  // namespace pmjoin
