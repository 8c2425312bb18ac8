#include "io/file_backend.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "io/buffer_pool.h"
#include "io/checksum.h"
#include "io/page_file.h"

namespace pmjoin {
namespace {

/// A fresh scratch directory under the gtest temp dir (removed up front so
/// reruns start clean).
std::string ScratchDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "pmjoin-fbtest-" +
                          std::to_string(::getpid()) + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

FileBackend::Options SmallPages() {
  FileBackend::Options options;
  options.page_size_bytes = 128;
  return options;
}

/// Path of `file`'s page file inside the backend directory (resolved by
/// prefix so the name-sanitization rules stay internal to the backend).
std::string PagePath(const FileBackend& backend, uint32_t file) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "pf%06u_", file);
  for (const auto& entry :
       std::filesystem::directory_iterator(backend.directory())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0)
      return entry.path().string();
  }
  return {};
}

/// Flips one bit at byte `offset` of `path`.
void FlipBit(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

// Known-answer vectors for the XXH64 implementation (reference values of
// the canonical xxHash implementation, seed 0).
TEST(ChecksumTest, KnownAnswers) {
  EXPECT_EQ(Xxh64(nullptr, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64("a", 1), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64("abc", 3), 0x44BC2CF5AD770999ULL);
}

TEST(ChecksumTest, SensitiveToEveryByteAndSeed) {
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<uint8_t>(i * 7);
  const uint64_t base = Xxh64(data.data(), data.size());
  EXPECT_NE(base, Xxh64(data.data(), data.size(), /*seed=*/1));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(base, Xxh64(data.data(), data.size())) << "byte " << i;
    data[i] ^= 1;
  }
  EXPECT_EQ(base, Xxh64(data.data(), data.size()));
}

TEST(FileBackendTest, WriteReadRoundTrip) {
  const std::string dir = ScratchDir("roundtrip");
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  const uint32_t file = backend->CreateFile("data", 3);

  std::vector<uint8_t> payload(backend->page_size_bytes());
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(backend->WritePagePayload({file, 1}, payload).ok());

  std::vector<uint8_t> read_back(backend->page_size_bytes(), 0xAA);
  ASSERT_TRUE(backend->ReadPagePayload({file, 1}, read_back).ok());
  EXPECT_EQ(read_back, payload);

  // Never-written pages read back as zeros (slots are zero-filled, with
  // valid checksums, at allocation).
  ASSERT_TRUE(backend->ReadPagePayload({file, 0}, read_back).ok());
  EXPECT_EQ(read_back, std::vector<uint8_t>(backend->page_size_bytes(), 0));

  // A short payload zero-fills the remainder of the page.
  const std::vector<uint8_t> head = {1, 2, 3};
  ASSERT_TRUE(backend->WritePagePayload({file, 2}, head).ok());
  ASSERT_TRUE(backend->ReadPagePayload({file, 2}, read_back).ok());
  EXPECT_EQ(read_back[0], 1);
  EXPECT_EQ(read_back[2], 3);
  EXPECT_EQ(read_back[3], 0);
  EXPECT_EQ(read_back.back(), 0);
}

TEST(FileBackendTest, ReopenRestoresFilesAndPayloads) {
  const std::string dir = ScratchDir("reopen");
  std::vector<uint8_t> payload(128, 0x5A);
  {
    auto backend = FileBackend::Open(dir, SmallPages()).value();
    const uint32_t a = backend->CreateFile("alpha", 2);
    const uint32_t b = backend->CreateFile("beta", 1);
    ASSERT_EQ(a, 0u);
    ASSERT_EQ(b, 1u);
    ASSERT_TRUE(backend->WritePagePayload({a, 1}, payload).ok());
    ASSERT_TRUE(backend->AllocatePages(b, 2).ok());
    ASSERT_TRUE(backend->Sync().ok());
  }
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  ASSERT_EQ(backend->NumFiles(), 2u);
  EXPECT_EQ(backend->file(0).name, "alpha");
  EXPECT_EQ(backend->file(1).name, "beta");
  EXPECT_EQ(backend->num_pages(0), 2u);
  EXPECT_EQ(backend->num_pages(1), 3u);
  std::vector<uint8_t> read_back(128);
  ASSERT_TRUE(backend->ReadPagePayload({0, 1}, read_back).ok());
  EXPECT_EQ(read_back, payload);
  // A reopened backend starts with fresh modeled counters.
  EXPECT_EQ(backend->stats().pages_read, 1u);
}

TEST(FileBackendTest, BadMagicIsCorruption) {
  const std::string dir = ScratchDir("badmagic");
  {
    auto backend = FileBackend::Open(dir, SmallPages()).value();
    backend->CreateFile("data", 1);
  }
  FlipBit(PagePath(*FileBackend::Open(dir, SmallPages()).value(), 0), 0);
  const auto reopened = FileBackend::Open(dir, SmallPages());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
}

TEST(FileBackendTest, BadVersionIsCorruption) {
  const std::string dir = ScratchDir("badversion");
  std::string path;
  {
    auto backend = FileBackend::Open(dir, SmallPages()).value();
    backend->CreateFile("data", 1);
    path = PagePath(*backend, 0);
  }
  // Rewrite the version field *and* recompute the superblock checksum, so
  // the version check itself (not the checksum) must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::vector<char> super(FileBackend::kSuperblockBytes);
  f.read(super.data(), super.size());
  super[8] = 99;  // version u32 at offset 8, little-endian
  const uint64_t sum = Xxh64(super.data(), 504);
  for (int i = 0; i < 8; ++i)
    super[504 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  f.seekp(0);
  f.write(super.data(), super.size());
  f.close();

  const auto reopened = FileBackend::Open(dir, SmallPages());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("version"), std::string::npos);
}

TEST(FileBackendTest, PageSizeMismatchIsInvalidArgument) {
  const std::string dir = ScratchDir("pagesize");
  {
    auto backend = FileBackend::Open(dir, SmallPages()).value();
    backend->CreateFile("data", 1);
  }
  FileBackend::Options other;
  other.page_size_bytes = 256;
  const auto reopened = FileBackend::Open(dir, other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kInvalidArgument);
}

TEST(FileBackendTest, TruncatedFileIsCorruption) {
  const std::string dir = ScratchDir("truncated");
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  const uint32_t file = backend->CreateFile("data", 2);
  ASSERT_TRUE(backend->Sync().ok());
  const std::string path = PagePath(*backend, file);
  // Cut the file mid-way through the last page slot: the read comes up
  // short, which must surface as Corruption, not a crash.
  std::error_code ec;
  std::filesystem::resize_file(
      path, FileBackend::SlotOffset(backend->page_size_bytes(), 1) + 7, ec);
  ASSERT_FALSE(ec);
  const Status status = backend->ReadPage({file, 1});
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // The failed read charges no modeled transfer.
  EXPECT_EQ(backend->stats().pages_read, 0u);
  // Reattaching checks the superblock's page count against the file size,
  // so the damage is caught before any page is read or sized by it.
  backend.reset();
  const auto reopened = FileBackend::Open(dir, SmallPages());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("claims 2 pages"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST(FileBackendTest, BitFlippedPageIsCorruption) {
  const std::string dir = ScratchDir("bitflip");
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  const uint32_t file = backend->CreateFile("data", 3);
  std::vector<uint8_t> payload(128, 0x33);
  ASSERT_TRUE(backend->WritePagePayload({file, 1}, payload).ok());
  ASSERT_TRUE(backend->Sync().ok());

  FlipBit(PagePath(*backend, file),
          FileBackend::SlotOffset(backend->page_size_bytes(), 1) + 17);

  EXPECT_TRUE(backend->ReadPage({file, 0}).ok());
  const Status status = backend->ReadPage({file, 1});
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // Payload reads hit the same verification.
  std::vector<uint8_t> read_back(128);
  EXPECT_TRUE(backend->ReadPagePayload({file, 1}, read_back).IsCorruption());
  // Neighbouring pages stay readable.
  EXPECT_TRUE(backend->ReadPage({file, 2}).ok());
}

TEST(FileBackendTest, CorruptionPropagatesThroughPinBatch) {
  const std::string dir = ScratchDir("pinbatch");
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  const uint32_t file = backend->CreateFile("data", 6);
  ASSERT_TRUE(backend->Sync().ok());
  FlipBit(PagePath(*backend, file),
          FileBackend::SlotOffset(backend->page_size_bytes(), 4) + 3);

  BufferPool pool(backend.get(), 8);
  const std::vector<PageId> batch = {
      {file, 0}, {file, 1}, {file, 2}, {file, 3}, {file, 4}, {file, 5}};
  const Status status = pool.PinBatch(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // The PR-1 rollback contract: pins acquired before the failure are
  // released, and the pool's bookkeeping stays structurally sound.
  EXPECT_EQ(pool.PinnedCount(), 0u);
  EXPECT_TRUE(pool.ValidateInvariants().ok());
  // Pages fetched before the corrupt one may remain resident (rollback is
  // not state-neutral), but the pool must still work for clean pages.
  ASSERT_TRUE(pool.Pin({file, 0}).ok());
  pool.Unpin({file, 0});
}

TEST(FileBackendTest, CreateFailureIsStickyNotFatal) {
  const std::string dir = ScratchDir("sticky");
  auto backend = FileBackend::Open(dir, SmallPages()).value();
  // Remove the directory out from under the backend: the next physical
  // create must fail, but CreateFile stays infallible by contract — the
  // error is recorded per-file and returned by every later operation.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const uint32_t file = backend->CreateFile("orphan", 2);
  EXPECT_FALSE(backend->FileStatus(file).ok());
  EXPECT_FALSE(backend->ReadPage({file, 0}).ok());
  EXPECT_FALSE(backend->WritePage({file, 0}).ok());
  EXPECT_FALSE(backend->AllocatePages(file, 1).ok());
  // Failed operations charge nothing.
  EXPECT_EQ(backend->stats().pages_read, 0u);
  EXPECT_EQ(backend->stats().pages_written, 0u);
}

}  // namespace
}  // namespace pmjoin
