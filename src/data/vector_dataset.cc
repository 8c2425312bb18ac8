#include "data/vector_dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "index/str_bulk_load.h"
#include "io/wire.h"

namespace pmjoin {

namespace {

/// Metadata sidecar format version tag ("PMJVDS" + version byte pair).
constexpr uint64_t kVectorMetaMagic = 0x31305344564A4D50ULL;  // "PMJVDS01"

bool AllFinite(std::span<const float> values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace

void VectorDataset::SortPages() {
  std::vector<uint32_t> perm;
  std::vector<float> rows;
  std::vector<uint64_t> ids;
  for (uint32_t p = 0; p < num_pages(); ++p) {
    const uint32_t cnt = PageRecordCount(p);
    const uint64_t first = uint64_t(p) * records_per_page_;
    float* page = packed_.data() + first * stride_;
    uint64_t* page_ids = orig_ids_.data() + first;
    perm.resize(cnt);
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return page[size_t(a) * stride_] < page[size_t(b) * stride_];
    });
    rows.assign(page, page + size_t(cnt) * stride_);
    ids.assign(page_ids, page_ids + cnt);
    for (uint32_t k = 0; k < cnt; ++k) {
      std::copy_n(rows.data() + size_t(perm[k]) * stride_, stride_,
                  page + size_t(k) * stride_);
      page_ids[k] = ids[perm[k]];
    }
  }
  origin_pos_.resize(orig_ids_.size());
  for (uint64_t pos = 0; pos < orig_ids_.size(); ++pos)
    origin_pos_[orig_ids_[pos]] = pos;
}

Result<VectorDataset> VectorDataset::Build(StorageBackend* disk,
                                           std::string_view name,
                                           VectorData data, Options options) {
  if (disk == nullptr)
    return Status::InvalidArgument("VectorDataset: null disk");
  if (data.dims == 0 || data.values.empty())
    return Status::InvalidArgument("VectorDataset: empty data");
  if (data.values.size() % data.dims != 0)
    return Status::InvalidArgument("VectorDataset: ragged data");
  if (!AllFinite(data.values))
    return Status::InvalidArgument("VectorDataset: non-finite coordinate");
  const uint32_t rpp = static_cast<uint32_t>(
      options.page_size_bytes / (data.dims * sizeof(float)));
  if (rpp == 0)
    return Status::InvalidArgument(
        "VectorDataset: page smaller than one record");

  VectorDataset ds;
  ds.dims_ = data.dims;
  ds.records_per_page_ = rpp;

  const size_t n = data.count();

  // STR-pack record MBRs (degenerate point boxes) into page-sized groups.
  std::vector<Mbr> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    boxes.push_back(Mbr::FromPoint(
        std::span<const float>(data.record(i), data.dims)));
  }
  std::vector<std::vector<uint32_t>> groups = StrPack(boxes, rpp);

  // Flatten the STR order, then slice into pages of exactly `rpp` records
  // (groups at slab boundaries can be short; sequential slicing keeps page
  // occupancy uniform while preserving the spatial ordering).
  std::vector<uint32_t> order;
  order.reserve(n);
  for (const std::vector<uint32_t>& g : groups)
    order.insert(order.end(), g.begin(), g.end());

  const size_t num_pages = (n + rpp - 1) / rpp;
  ds.stride_ = kernels::PaddedWidth(data.dims);
  // Whole pages of zero-initialized padded rows: the tail slots of a
  // short last page and the per-record padding both read as zeros, which
  // contribute nothing to any supported norm.
  ds.packed_.assign(num_pages * size_t(rpp) * ds.stride_, 0.0f);
  ds.orig_ids_.reserve(n);
  ds.page_mbrs_.reserve(num_pages);
  std::vector<RStarTree::Entry> leaf_entries;
  leaf_entries.reserve(num_pages);

  for (size_t p = 0; p < num_pages; ++p) {
    Mbr page_mbr(data.dims);
    const size_t end = std::min(n, (p + 1) * size_t(rpp));
    for (size_t i = p * rpp; i < end; ++i) {
      const uint32_t orig = order[i];
      const std::span<const float> rec(data.record(orig), data.dims);
      ds.orig_ids_.push_back(orig);
      std::copy(rec.begin(), rec.end(),
                ds.packed_.begin() + i * ds.stride_);
      page_mbr.Expand(rec);
    }
    leaf_entries.push_back(
        RStarTree::Entry{page_mbr, static_cast<uint32_t>(p)});
    ds.page_mbrs_.push_back(std::move(page_mbr));
  }
  ds.SortPages();

  ds.tree_ = RStarTree::BulkLoadStr(data.dims, std::move(leaf_entries));
  ds.file_id_ = disk->CreateFile(
      name, static_cast<uint32_t>(ds.page_mbrs_.size()));
  // Node file for index-based operators (BFRJ) so node I/O is chargeable.
  ds.tree_.AttachFile(disk, std::string(name) + ".idx");
  return ds;
}

Status VectorDataset::Persist(StorageBackend* disk) const {
  if (disk == nullptr)
    return Status::InvalidArgument("Persist: null backend");
  if (file_id_ >= disk->NumFiles() ||
      disk->num_pages(file_id_) != num_pages())
    return Status::InvalidArgument(
        "Persist: dataset was not built on this backend");
  const size_t record_bytes = dims_ * sizeof(float);
  if (size_t(records_per_page_) * record_bytes > disk->page_size_bytes())
    return Status::InvalidArgument(
        "Persist: dataset page does not fit a backend page");
  const std::string& name = disk->file(file_id_).name;

  // Data pages: the records of page p, unpadded, in slot order.
  std::vector<uint8_t> payload(size_t(records_per_page_) * record_bytes);
  for (uint32_t p = 0; p < num_pages(); ++p) {
    const uint32_t cnt = PageRecordCount(p);
    for (uint32_t s = 0; s < cnt; ++s) {
      std::memcpy(payload.data() + size_t(s) * record_bytes,
                  packed_.data() +
                      (uint64_t(p) * records_per_page_ + s) * stride_,
                  record_bytes);
    }
    PMJOIN_RETURN_IF_ERROR(disk->WritePagePayload(
        {file_id_, p},
        std::span<const uint8_t>(payload.data(), size_t(cnt) * record_bytes)));
  }

  // Metadata sidecar: everything Open needs that the pages don't hold.
  std::vector<uint8_t> meta;
  wire::AppendU64(&meta, kVectorMetaMagic);
  wire::AppendU32(&meta, static_cast<uint32_t>(dims_));
  wire::AppendU32(&meta, records_per_page_);
  wire::AppendU64(&meta, num_records());
  wire::AppendU32(&meta, num_pages());
  for (uint64_t id : orig_ids_) wire::AppendU64(&meta, id);
  PMJOIN_ASSIGN_OR_RETURN(uint32_t meta_file,
                          WriteBlobFile(disk, std::string(name) + ".meta",
                                        meta));
  (void)meta_file;
  return disk->Sync();
}

Result<VectorDataset> VectorDataset::Open(StorageBackend* disk,
                                          std::string_view name) {
  if (disk == nullptr) return Status::InvalidArgument("Open: null backend");
  PMJOIN_ASSIGN_OR_RETURN(uint32_t meta_file,
                          disk->FindFile(std::string(name) + ".meta"));
  PMJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                          ReadFileBlob(disk, meta_file));
  wire::Reader r{std::span<const uint8_t>(blob)};
  if (r.U64() != kVectorMetaMagic)
    return Status::Corruption("VectorDataset: bad metadata magic");
  VectorDataset ds;
  ds.dims_ = r.U32();
  ds.records_per_page_ = r.U32();
  const uint64_t num_records = r.U64();
  const uint32_t num_pages = r.U32();
  if (!r.ok || ds.dims_ == 0 || ds.records_per_page_ == 0 ||
      num_records == 0 ||
      num_pages != (num_records + ds.records_per_page_ - 1) /
                       ds.records_per_page_ ||
      num_records > (blob.size() / 8))
    return Status::Corruption("VectorDataset: bad metadata header");
  // A page must hold its records: this bounds the allocation below and
  // every record copy out of the page-sized payload buffer.
  const size_t page_bytes = disk->page_size_bytes();
  if (ds.dims_ > page_bytes / sizeof(float) ||
      ds.records_per_page_ > page_bytes / (ds.dims_ * sizeof(float)))
    return Status::Corruption(
        "VectorDataset: page geometry exceeds the backend page");
  ds.orig_ids_.resize(num_records);
  std::vector<uint8_t> seen(num_records, 0);
  for (uint64_t i = 0; i < num_records; ++i) {
    const uint64_t id = r.U64();
    if (id >= num_records)
      return Status::Corruption("VectorDataset: original id out of range");
    if (seen[id] != 0)
      return Status::Corruption("VectorDataset: repeated original id");
    seen[id] = 1;
    ds.orig_ids_[i] = id;
  }
  if (!r.ok) return Status::Corruption("VectorDataset: truncated metadata");

  PMJOIN_ASSIGN_OR_RETURN(uint32_t data_file, disk->FindFile(name));
  if (disk->num_pages(data_file) < num_pages)
    return Status::Corruption("VectorDataset: data file too short");
  ds.file_id_ = data_file;
  ds.stride_ = kernels::PaddedWidth(ds.dims_);
  const size_t record_bytes = ds.dims_ * sizeof(float);
  ds.packed_.assign(size_t(num_pages) * ds.records_per_page_ * ds.stride_,
                    0.0f);
  ds.page_mbrs_.reserve(num_pages);
  std::vector<RStarTree::Entry> leaf_entries;
  leaf_entries.reserve(num_pages);
  std::vector<uint8_t> payload(page_bytes);
  for (uint32_t p = 0; p < num_pages; ++p) {
    PMJOIN_RETURN_IF_ERROR(disk->ReadPagePayload({data_file, p}, payload));
    Mbr page_mbr(ds.dims_);
    const uint32_t cnt = ds.PageRecordCount(p);
    for (uint32_t s = 0; s < cnt; ++s) {
      float* row = ds.packed_.data() +
                   (uint64_t(p) * ds.records_per_page_ + s) * ds.stride_;
      std::memcpy(row, payload.data() + size_t(s) * record_bytes,
                  record_bytes);
      const std::span<const float> rec(row, ds.dims_);
      if (!AllFinite(rec))
        return Status::Corruption("VectorDataset: non-finite coordinate");
      page_mbr.Expand(rec);
    }
    leaf_entries.push_back(RStarTree::Entry{page_mbr, p});
    ds.page_mbrs_.push_back(std::move(page_mbr));
  }
  ds.SortPages();
  ds.tree_ = RStarTree::BulkLoadStr(ds.dims_, std::move(leaf_entries));
  ds.tree_.AttachFile(disk, std::string(name) + ".idx");
  return ds;
}

uint32_t VectorDataset::PageRecordCount(uint32_t page) const {
  const uint64_t first = uint64_t(page) * records_per_page_;
  const uint64_t remaining = num_records() - first;
  return static_cast<uint32_t>(
      remaining < records_per_page_ ? remaining : records_per_page_);
}

std::span<const float> VectorDataset::Record(uint32_t page,
                                             uint32_t slot) const {
  const uint64_t pos = uint64_t(page) * records_per_page_ + slot;
  assert(pos < num_records());
  return std::span<const float>(packed_.data() + pos * stride_, dims_);
}

uint64_t VectorDataset::OriginalId(uint32_t page, uint32_t slot) const {
  const uint64_t pos = uint64_t(page) * records_per_page_ + slot;
  assert(pos < num_records());
  return orig_ids_[pos];
}

std::span<const float> VectorDataset::RecordByOriginalId(
    uint64_t orig_id) const {
  assert(orig_id < num_records());
  const uint64_t pos = origin_pos_[orig_id];
  return std::span<const float>(packed_.data() + pos * stride_, dims_);
}

}  // namespace pmjoin
