#include "src/lin/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/util/panic.h"

namespace lin {
namespace {

TEST(Mutex, DataOnlyReachableThroughGuard) {
  Mutex<int> m(5);
  {
    auto g = m.Lock();
    EXPECT_EQ(*g, 5);
    *g = 6;
  }
  EXPECT_EQ(*m.Lock(), 6);
}

TEST(Mutex, MutualExclusionUnderContention) {
  Mutex<long> counter(0);
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIters; ++i) {
        auto g = counter.Lock();
        *g += 1;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(*counter.Lock(), static_cast<long>(kThreads) * kIters);
}

TEST(Mutex, PanicWhileHeldPoisons) {
  Mutex<int> m(1);
  try {
    auto g = m.Lock();
    *g = 999;  // half-finished update
    util::Panic("boom");
  } catch (const util::PanicError&) {
  }
  EXPECT_TRUE(m.IsPoisoned());
  EXPECT_THROW((void)m.Lock(), util::PanicError);
  try {
    (void)m.Lock();
  } catch (const util::PanicError& e) {
    EXPECT_EQ(e.kind(), util::PanicKind::kPoisoned);
  }
}

TEST(Mutex, LockClearPoisonRecovers) {
  Mutex<int> m(1);
  try {
    auto g = m.Lock();
    util::Panic("boom");
  } catch (const util::PanicError&) {
  }
  ASSERT_TRUE(m.IsPoisoned());
  {
    auto g = m.LockClearPoison();
    *g = 0;  // recovery path reinitializes
  }
  EXPECT_FALSE(m.IsPoisoned());
  EXPECT_EQ(*m.Lock(), 0);
}

TEST(Mutex, NormalUnlockDoesNotPoison) {
  Mutex<int> m(1);
  {
    auto g = m.Lock();
  }
  EXPECT_FALSE(m.IsPoisoned());
}

}  // namespace
}  // namespace lin
