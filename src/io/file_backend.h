#ifndef PMJOIN_IO_FILE_BACKEND_H_
#define PMJOIN_IO_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/disk_model.h"
#include "io/page_file.h"
#include "io/storage_backend.h"

namespace pmjoin {

/// Real-file `StorageBackend`: POSIX pread/pwrite over a directory of page
/// files. The modeled `IoStats` are still computed by the base class (so a
/// run's modeled cost is byte-identical to the simulated backend); this
/// backend adds *measured* I/O on top, so modeled-vs-measured cost can be
/// compared in one run report.
///
/// On-disk format (all integers little-endian):
///
///   <dir>/pf<6-digit id>_<sanitized name>.pmj
///
///   [ superblock: kSuperblockBytes ]
///     off 0   magic   "PMJPAGE1" (8 bytes)
///     off 8   u32     format version (kFormatVersion)
///     off 12  u32     page size in bytes
///     off 16  u32     number of pages
///     off 20  u32     file-name length
///     off 24  name    (at most kMaxNameBytes bytes, unpadded)
///     off 504 u64     XXH64 of bytes [0, 504)
///   [ page slot 0: page_size payload + u64 XXH64 of the payload ]
///   [ page slot 1 ] ...
///
/// Every read verifies the per-page checksum; a mismatch (bit flip,
/// truncation, torn write) surfaces as `Status::Corruption` — never a
/// crash. Pages allocated but never written read back as zeros (slots are
/// zero-filled, with valid checksums, at allocation time).
class FileBackend final : public StorageBackend {
 public:
  struct Options {
    DiskModel model;
    uint32_t page_size_bytes = kDefaultPageSizeBytes;
  };

  static constexpr char kMagic[8] = {'P', 'M', 'J', 'P', 'A', 'G', 'E', '1'};
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr uint32_t kSuperblockBytes = 512;
  static constexpr uint32_t kMaxNameBytes = 448;

  /// Byte length of one page slot (payload + checksum trailer).
  static constexpr uint64_t SlotBytes(uint32_t page_size) {
    return uint64_t(page_size) + 8;
  }
  /// Byte offset of page `page`'s slot within its file.
  static constexpr uint64_t SlotOffset(uint32_t page_size, uint32_t page) {
    return kSuperblockBytes + uint64_t(page) * SlotBytes(page_size);
  }

  /// Opens (creating if needed) `directory` as a backend root and attaches
  /// any page files already present, restoring their ids in creation
  /// order. Fails with `Corruption` on a bad superblock (magic, version,
  /// checksum, a page count the file is too short to hold, or a gap in the
  /// id sequence) and `InvalidArgument` on a page-size mismatch with
  /// `options`.
  static Result<std::unique_ptr<FileBackend>> Open(std::string_view directory,
                                                   Options options);
  static Result<std::unique_ptr<FileBackend>> Open(std::string_view directory) {
    return Open(directory, Options());
  }

  ~FileBackend() override;

  std::string_view backend_name() const override { return "file"; }

  const std::string& directory() const { return dir_; }

  /// The sticky physical status of `file`: OK, or the error that its
  /// creation hit (every page operation on such a file returns it too).
  Status FileStatus(uint32_t file) const;

 protected:
  void DoCreateFile(uint32_t file_id, std::string_view name,
                    uint32_t initial_pages) override;
  Status DoAllocatePages(uint32_t file, uint32_t first_new,
                         uint32_t count) override;
  Status DoReadPages(PageId pid, uint32_t count,
                     uint8_t* payload_out) override;
  Status DoWritePage(PageId pid, const uint8_t* payload,
                     uint32_t payload_size) override;
  Status DoSync() override;

 private:
  struct Handle {
    int fd = -1;
    Status error;  // sticky: set when creation failed
  };

  FileBackend(std::string directory, Options options);

  std::string PathFor(uint32_t file_id, std::string_view name) const;
  Status WriteSuperblock(uint32_t file, std::string_view name,
                         uint32_t num_pages);
  Status WriteZeroSlots(uint32_t file, uint32_t first, uint32_t count);
  Status PwriteAll(int fd, const uint8_t* buf, size_t len, uint64_t offset);
  Status PreadAll(int fd, uint8_t* buf, size_t len, uint64_t offset,
                  std::string_view what);

  std::string dir_;
  std::vector<Handle> handles_;
  /// Slot-aligned scratch for chunked reads/writes; coordinator-only (the
  /// executor funnels all pool I/O through one thread).
  std::vector<uint8_t> scratch_;
};

}  // namespace pmjoin

#endif  // PMJOIN_IO_FILE_BACKEND_H_
