// Mempool + PacketBuf: buffer conservation is the key invariant — every
// buffer allocated is freed exactly once, no matter how packets move, drop,
// or unwind through panics.
#include "src/net/mempool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/batch.h"
#include "src/net/packet.h"
#include "src/util/panic.h"

namespace net {
namespace {

TEST(Mempool, AllocUntilExhaustion) {
  Mempool pool(4, 256);
  std::uint32_t slot;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pool.Alloc(&slot));
  }
  EXPECT_FALSE(pool.Alloc(&slot)) << "5th alloc from a 4-buffer pool";
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.in_use(), 4u);
}

TEST(Mempool, FreeMakesSlotReusable) {
  Mempool pool(1, 256);
  std::uint32_t slot;
  ASSERT_TRUE(pool.Alloc(&slot));
  pool.Free(slot);
  std::uint32_t again;
  ASSERT_TRUE(pool.Alloc(&again));
  EXPECT_EQ(again, slot);
}

TEST(Mempool, SlotsAreDisjointBuffers) {
  Mempool pool(8, 64);
  std::uint32_t a, b;
  ASSERT_TRUE(pool.Alloc(&a));
  ASSERT_TRUE(pool.Alloc(&b));
  EXPECT_NE(pool.Data(a), pool.Data(b));
  EXPECT_GE(static_cast<std::size_t>(
                std::abs(pool.Data(a) - pool.Data(b))),
            64u);
}

// The slab starts on a cache line, so with 2048-byte slots every frame does
// and a 64-byte frame spans one line, wherever the heap places the slab: a
// large pool (nfbench's shape, which glibc serves from mmap) and a small one
// (served from the heap).
TEST(Mempool, EveryBufferStartsOnACacheLine) {
  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{8}}) {
    Mempool pool(capacity, 2048);
    for (std::uint32_t slot = 0; slot < capacity; ++slot) {
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(pool.Data(slot)) % 64, 0u)
          << "capacity " << capacity << ", slot " << slot;
    }
  }
}

TEST(Mempool, ForeignSlotFreePanics) {
  Mempool pool(2, 64);
  EXPECT_THROW(pool.Free(7), util::PanicError);
}

TEST(Mempool, DoubleFreeOfFullPoolPanics) {
  // With the pool already full, a double-free would push the freelist past
  // capacity; the capacity assertion catches it even in unchecked builds
  // (checked builds panic earlier, via the free-slot bitmap).
  Mempool pool(4, 64);
  std::uint32_t slot;
  ASSERT_TRUE(pool.Alloc(&slot));
  pool.Free(slot);
  EXPECT_EQ(pool.available(), pool.capacity());
  EXPECT_THROW(pool.Free(slot), util::PanicError);
}

#if LINSYS_CHECKED_OWNERSHIP
TEST(MempoolChecked, DoubleFreeWithOutstandingBuffersPanics) {
  // The dangerous variant: the pool is NOT full, so the freelist would stay
  // under capacity and silently hand the same slot to two owners. Only the
  // checked-mode bitmap can catch this one.
  Mempool pool(4, 64);
  std::uint32_t a, b;
  ASSERT_TRUE(pool.Alloc(&a));
  ASSERT_TRUE(pool.Alloc(&b));
  pool.Free(a);
  EXPECT_THROW(pool.Free(a), util::PanicError);
  pool.Free(b);
}

TEST(MempoolChecked, CrossThreadUsePanics) {
  Mempool pool(4, 64);
  std::uint32_t slot;
  ASSERT_TRUE(pool.Alloc(&slot));  // binds the pool to this thread
  std::atomic<bool> alloc_panicked{false};
  std::atomic<bool> free_panicked{false};
  std::thread intruder([&pool, slot, &alloc_panicked, &free_panicked] {
    std::uint32_t s;
    try {
      (void)pool.Alloc(&s);
    } catch (const util::PanicError&) {
      alloc_panicked = true;
    }
    try {
      pool.Free(slot);  // a slot the owner allocated
    } catch (const util::PanicError&) {
      free_panicked = true;
    }
  });
  intruder.join();
  EXPECT_TRUE(alloc_panicked.load())
      << "single-owner contract: other threads must be rejected";
  EXPECT_TRUE(free_panicked.load())
      << "a non-owner Free must be rejected like a non-owner Alloc";
  EXPECT_EQ(pool.in_use(), 1u) << "the refused Free left the slot in use";
  pool.Free(slot);  // owner thread continues to work
}
#endif  // LINSYS_CHECKED_OWNERSHIP

TEST(PacketBuf, ReturnsBufferOnDestruction) {
  Mempool pool(2, 256);
  {
    PacketBuf pkt = PacketBuf::Alloc(&pool, 64);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pool.in_use(), 1u);
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketBuf, MoveTransfersExactlyOneOwner) {
  Mempool pool(2, 256);
  PacketBuf a = PacketBuf::Alloc(&pool, 64);
  PacketBuf b = std::move(a);
  EXPECT_FALSE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(pool.in_use(), 1u) << "a move is not a second allocation";
  EXPECT_THROW((void)a.data(), util::PanicError) << "use-after-move";
  b.Drop();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_THROW((void)b.data(), util::PanicError) << "use-after-drop";
}

TEST(PacketBuf, AllocFailureYieldsEmptyHandle) {
  Mempool pool(1, 256);
  PacketBuf a = PacketBuf::Alloc(&pool, 64);
  PacketBuf b = PacketBuf::Alloc(&pool, 64);
  EXPECT_TRUE(a.has_value());
  EXPECT_FALSE(b.has_value());
}

TEST(PacketBuf, OversizeFramePanics) {
  Mempool pool(1, 128);
  EXPECT_THROW((void)PacketBuf::Alloc(&pool, 256), util::PanicError);
}

TEST(PacketBuf, HeaderAccessOnTinyFramePanics) {
  Mempool pool(1, 256);
  PacketBuf pkt = PacketBuf::Alloc(&pool, 10);  // shorter than Eth+IPv4
  EXPECT_THROW((void)pkt.ipv4(), util::PanicError);
}

TEST(Batch, RetainDropsAndPreservesOrder) {
  Mempool pool(8, 256);
  PacketBatch batch;
  for (int i = 0; i < 8; ++i) {
    PacketBuf pkt = PacketBuf::Alloc(&pool, 64);
    BuildFrame(pkt, FiveTuple{static_cast<std::uint32_t>(i), 2, 3, 4, 17});
    batch.Push(std::move(pkt));
  }
  // Keep even src_ip packets.
  batch.Retain([](PacketBuf& p) { return p.Tuple().src_ip % 2 == 0; });
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(pool.in_use(), 4u) << "dropped packets returned their buffers";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].Tuple().src_ip, i * 2) << "order preserved";
  }
}

TEST(Batch, RetainAllAndNone) {
  Mempool pool(4, 256);
  PacketBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.Push(PacketBuf::Alloc(&pool, 64));
  }
  batch.Retain([](PacketBuf&) { return true; });
  EXPECT_EQ(batch.size(), 4u);
  batch.Retain([](PacketBuf&) { return false; });
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(Batch, OutOfRangeIndexPanics) {
  PacketBatch batch;
  EXPECT_THROW((void)batch[0], util::PanicError);
}

TEST(Batch, BuffersReclaimedWhenUnwindDestroysBatch) {
  Mempool pool(4, 256);
  try {
    PacketBatch batch;
    for (int i = 0; i < 4; ++i) {
      batch.Push(PacketBuf::Alloc(&pool, 64));
    }
    util::Panic("stage fault mid-batch");
  } catch (const util::PanicError&) {
  }
  EXPECT_EQ(pool.in_use(), 0u)
      << "a faulting stage must not leak packet buffers";
}

TEST(Batch, MoveIsOwnershipTransfer) {
  Mempool pool(2, 256);
  PacketBatch a;
  a.Push(PacketBuf::Alloc(&pool, 64));
  PacketBatch b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(pool.in_use(), 1u);
}

}  // namespace
}  // namespace net
