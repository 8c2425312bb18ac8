#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace pmjoin {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);

  std::atomic<uint64_t> sum{0};
  WaitGroup wg;
  constexpr int kTasks = 1000;
  wg.Add(kTasks);
  for (int i = 1; i <= kTasks; ++i) {
    pool.Submit([&sum, &wg, i] {
      sum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(sum.load(), uint64_t(kTasks) * (kTasks + 1) / 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  WaitGroup wg;
  wg.Add(1);
  bool ran = false;
  pool.Submit([&] {
    ran = true;
    wg.Done();
  });
  wg.Wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, WaitGroupMakesWorkerWritesVisible) {
  // Non-atomic per-slot writes synchronized only by the WaitGroup: the
  // executor relies on exactly this pattern for its sink/counter shards.
  ThreadPool pool(4);
  std::vector<uint64_t> slots(64, 0);
  WaitGroup wg;
  wg.Add(static_cast<uint32_t>(slots.size()));
  for (size_t i = 0; i < slots.size(); ++i) {
    pool.Submit([&slots, &wg, i] {
      slots[i] = i * i;
      wg.Done();
    });
  }
  wg.Wait();
  for (size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], i * i);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    WaitGroup wg;
    wg.Add(16);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&] {
        count.fetch_add(1, std::memory_order_relaxed);
        wg.Done();
      });
    }
    wg.Wait();
    EXPECT_EQ(count.load(), 16);
  }
}

TEST(ThreadPoolTest, WaitGroupFreedRightAfterWait) {
  // Wait may return while the last Done() is still inside Mutex::Unlock;
  // freeing the WaitGroup at once must be safe (under ASan, any read of
  // the mutex after its raw unlock shows up as a heap-use-after-free).
  ThreadPool pool(4);
  for (int round = 0; round < 5000; ++round) {
    auto wg = std::make_unique<WaitGroup>();
    wg->Add(4);
    for (int i = 0; i < 4; ++i) {
      WaitGroup* raw = wg.get();
      pool.Submit([raw] { raw->Done(); });
    }
    wg->Wait();
    wg.reset();
  }
}

}  // namespace
}  // namespace pmjoin
