// Packet-buffer mempool, modeled on DPDK's rte_mempool.
//
// Buffers are fixed-size slots carved out of one contiguous slab (cache
// behaviour matters for Figure 2), recycled through a freelist. Ownership of
// a buffer is *linear*: PacketBuf (packet.h) is a move-only handle that
// returns its slot on destruction, so a buffer can never be referenced after
// free or freed twice — the property DPDK documents but cannot enforce.
//
// Threading contract — SINGLE OWNER. Unlike rte_mempool (whose default ring
// backend is multi-producer/multi-consumer), this pool is deliberately not
// thread-safe: Alloc and Free mutate the freelist without synchronization.
// Exactly one thread may allocate from and free into a given pool. Packet
// handles may *transit* other threads (e.g. a batch handed across an
// sfi::Channel), but every path that ends a buffer's life — drop, Retain,
// unwinding — must run on the owning thread. net::Runtime enforces this
// structurally by giving each worker its own pool and steering flow
// descriptors, not buffers, through its per-worker rings (rss.h);
// worker-side allocation means cross-thread Free cannot be expressed. In checked builds
// (LINSYS_CHECKED=ON) the pool additionally binds itself to the first thread
// that calls Alloc/Free and panics on any use from another thread, and a
// free-slot bitmap turns double-frees into deterministic panics instead of
// silent freelist corruption.
#ifndef LINSYS_SRC_NET_MEMPOOL_H_
#define LINSYS_SRC_NET_MEMPOOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/lin/config.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {

class Mempool {
 public:
  // `capacity` buffers of `buf_size` bytes each.
  Mempool(std::size_t capacity, std::size_t buf_size)
      : buf_size_(buf_size),
        capacity_(capacity),
        storage_(std::make_unique<std::uint8_t[]>(capacity * buf_size +
                                                 kCacheLine - 1)),
        slab_(storage_.get() +
              (-reinterpret_cast<std::uintptr_t>(storage_.get()) &
               (kCacheLine - 1))) {
    free_list_.reserve(capacity);
    // Push in reverse so allocation order starts at slot 0 (ascending
    // addresses -> hardware-prefetcher-friendly batch sweeps).
    for (std::size_t i = capacity; i > 0; --i) {
      free_list_.push_back(static_cast<std::uint32_t>(i - 1));
    }
#if LINSYS_CHECKED_OWNERSHIP
    is_free_.assign(capacity, true);
#endif
  }

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  // Always-on pool telemetry, readable from *any* thread (the scraper runs
  // off the owner). The pool is single-writer, so each update is a plain
  // load+store pair on relaxed atomics — compiles to unfenced moves, no
  // lock-prefixed RMW on the packet path — while cross-thread readers stay
  // race-free (TSAN-clean). in_use is derived (allocs - frees) rather than
  // stored, so readers can never observe an alloc/in_use mismatch.
  struct CountersView {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t in_use = 0;
    std::uint64_t in_use_hwm = 0;
  };

  // Pops a slot; returns false when exhausted (caller decides drop policy,
  // as with rte_pktmbuf_alloc).
  bool Alloc(std::uint32_t* slot) {
    // Storm hook: allocation happens *outside* any protection domain on the
    // worker's fast path, so an injected panic here exercises the shard-loop
    // containment in net::Runtime::WorkerMain (not domain recovery).
    LINSYS_FAULT_POINT("mempool.alloc");
    CheckOwnerThread();
    if (free_list_.empty()) {
      BumpRelaxed(&alloc_failures_);
      return false;
    }
    *slot = free_list_.back();
    free_list_.pop_back();
#if LINSYS_CHECKED_OWNERSHIP
    is_free_[*slot] = false;
#endif
    const std::uint64_t allocs = BumpRelaxed(&allocs_);
    const std::uint64_t live = allocs - frees_.load(std::memory_order_relaxed);
    if (live > in_use_hwm_.load(std::memory_order_relaxed)) {
      in_use_hwm_.store(live, std::memory_order_relaxed);
    }
    return true;
  }

  void Free(std::uint32_t slot) {
    CheckOwnerThread();
    LINSYS_ASSERT(slot < capacity_, "Mempool::Free of foreign slot");
#if LINSYS_CHECKED_OWNERSHIP
    LINSYS_ASSERT(!is_free_[slot],
                  "Mempool::Free double-free: slot is already on the "
                  "freelist");
    is_free_[slot] = true;
#endif
    free_list_.push_back(slot);
    LINSYS_ASSERT(free_list_.size() <= capacity_,
                  "Mempool freelist grew past capacity (double-free)");
    BumpRelaxed(&frees_);
  }

  // Cross-thread-safe counters snapshot. Reading allocs *after* frees keeps
  // the derived in_use from underflowing when a Free lands between the loads
  // (an Alloc landing in the window can only overstate in_use by the
  // in-flight buffer, never tear it).
  CountersView Counters() const {
    CountersView v;
    v.frees = frees_.load(std::memory_order_relaxed);
    v.allocs = allocs_.load(std::memory_order_relaxed);
    v.alloc_failures = alloc_failures_.load(std::memory_order_relaxed);
    v.in_use = v.allocs - v.frees;
    v.in_use_hwm = in_use_hwm_.load(std::memory_order_relaxed);
    return v;
  }

  std::uint8_t* Data(std::uint32_t slot) {
    return slab_ + static_cast<std::size_t>(slot) * buf_size_;
  }
  const std::uint8_t* Data(std::uint32_t slot) const {
    return slab_ + static_cast<std::size_t>(slot) * buf_size_;
  }

  std::size_t buf_size() const { return buf_size_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return free_list_.size(); }
  std::size_t in_use() const { return capacity_ - free_list_.size(); }

 private:
  // Checked builds bind the pool to the first thread that touches the
  // freelist; any other thread panics. This is the runtime teeth behind the
  // single-owner contract above — Runtime's structure makes violations
  // impossible, but hand-rolled users get a deterministic panic instead of
  // a corrupted freelist. The owner pays one relaxed load and a compare: it
  // bound owner_ itself and nobody rewrites it. Only binding takes a CAS,
  // which fails for any thread that read owner_ empty but lost the race.
  void CheckOwnerThread() {
#if LINSYS_CHECKED_OWNERSHIP
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner == self) {
      return;
    }
    if (owner == std::thread::id{} &&
        owner_.compare_exchange_strong(owner, self,
                                       std::memory_order_relaxed)) {
      return;  // first touch binds ownership
    }
    util::Panic(util::PanicKind::kAssertFailed,
                "Mempool touched from a non-owner thread: pools are "
                "single-owner (see header contract); give each worker "
                "its own pool");
#endif
  }

  // Single-writer counter bump without a lock-prefixed RMW (the owner thread
  // is the only writer; concurrent readers only need untorn loads).
  static std::uint64_t BumpRelaxed(std::atomic<std::uint64_t>* c) {
    const std::uint64_t v = c->load(std::memory_order_relaxed) + 1;
    c->store(v, std::memory_order_relaxed);
    return v;
  }

  // The slab starts at the first cache line of its storage, so with a
  // buf_size that is a multiple of 64 every frame does too, wherever the heap
  // places the storage: a 64-byte frame then spans one line instead of two.
  // The storage is over-allocated rather than taken from an aligned
  // operator new, whose glibc path kept a freed slab resident beside the
  // next runtime's and raised nfbench's fwd64 peak_rss_mb from 16.9 to
  // 24.7 MB.
  static constexpr std::size_t kCacheLine = 64;

  std::size_t buf_size_;
  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> storage_;
  std::uint8_t* slab_;  // first cache line of storage_
  std::vector<std::uint32_t> free_list_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
  std::atomic<std::uint64_t> in_use_hwm_{0};
#if LINSYS_CHECKED_OWNERSHIP
  std::vector<bool> is_free_;
  std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace net

#endif  // LINSYS_SRC_NET_MEMPOOL_H_
