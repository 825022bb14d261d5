// Receive-side scaling (RSS): the NIC feature the DPDK simulator's users
// expect — hash each flow's 5-tuple and steer it to one of N workers, so one
// flow always lands on one worker (no cross-core flow state). Routing is a
// seeded word-wise hash range-reduced by multiply-shift, fixed for the life
// of the dispatcher, so each flow's state lives on exactly one replica
// (DESIGN.md §9 "Flow pinning").
//
// The dispatcher steers flow *descriptors* (FlowBatch), not packet buffers:
// frames are allocated from, and returned to, the owning worker's pool on
// that worker's thread (see mempool.h's single-owner contract), as with
// hardware RSS, where the NIC steers before any buffer of the queue's pool
// is touched.
//
// The handoff: each worker has a bounded ring of `queue_depth` reusable
// FlowBatch slots. Dispatch hashes each descriptor once, groups the burst
// by worker in one stable scatter pass, copies each worker's share as one
// range into that worker's next free slot, and publishes the slot by
// advancing the ring's tail. The worker swaps the slot's batch out against
// its own spare batch and advances the head. Slots keep their item capacity
// from lap to lap, so in steady state the handoff allocates nothing, and
// the worker never takes a lock.
//
// Linearity: Dispatch consumes its batch, and each slot has exactly one
// owner at a time — the producer from reserve to publish (under the ring's
// producer lock), then the worker from publish to release (its head
// advance). Neither side can reach a slot the other owns, so the slot handoff
// is the zero-copy ownership transfer that lin::Own gives a channel message:
// the dispatcher provably cannot touch a sub-batch after steering it, which
// is what makes lock-free per-worker flow tables sound (§3's argument applied
// across threads instead of domains).
//
// Producers: any thread may call Dispatch. A per-ring producer lock
// serializes the producers (and Close) of one ring; the worker never takes
// it. The steering counters are relaxed atomics, exact under concurrent
// dispatch. What only producers write (the counters, each ring's lock and
// cached head) sits on cache lines the workers never read, so a publish
// does not take away the line a worker's next Take needs.
//
// Waiting: each side polls for kPollBeforePark, yielding the CPU between
// rounds of spinning so that on an oversubscribed core the thread it waits
// for still runs, then parks on an atomic wait. The other side wakes it
// only if it announced that it parked: a seq_cst announce-then-recheck
// handshake, the same one obs::Tracer's drain uses (producers park on an
// event count, since several may wait on one ring). A parked producer is
// woken by the first take after it parked, once per park, not once per
// freed slot.
//
// Close strands nothing: Close sets the closed flag under the producer lock,
// so a publish racing it either lands before the flag (and the worker drains
// it before it exits) or sees the flag and is refused — counted in
// refused_sub_batches()/dropped_items(), never lost silently. A producer
// parked on a full ring is woken and refused.
#ifndef LINSYS_SRC_NET_RSS_H_
#define LINSYS_SRC_NET_RSS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/headers.h"
#include "src/obs/metrics.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"
#include "src/util/rng.h"

namespace net {

// One unit of steered work: which flow, and its per-flow sequence number
// (stamped into the frame payload so per-flow ordering is observable end to
// end).
struct FlowWork {
  FiveTuple tuple;
  std::uint64_t seq = 0;
};

// Batch of flow descriptors: what Dispatch consumes and what a ring slot
// carries to its worker.
class FlowBatch {
 public:
  FlowBatch() = default;
  explicit FlowBatch(std::size_t reserve) { work_.reserve(reserve); }

  void Push(FlowWork w) { work_.push_back(w); }
  std::size_t size() const { return work_.size(); }
  bool empty() const { return work_.empty(); }

  auto begin() { return work_.begin(); }
  auto end() { return work_.end(); }
  auto begin() const { return work_.begin(); }
  auto end() const { return work_.end(); }

  // Empties the batch and zeroes its stamps but keeps the item capacity, so
  // a ring slot refills without allocating.
  void Clear() {
    work_.clear();
    flow_id_ = 0;
    dispatch_tsc_ = 0;
  }
  void Reserve(std::size_t n) { work_.reserve(n); }
  // Appends [first, last) in one range copy.
  void Append(const FlowWork* first, const FlowWork* last) {
    work_.insert(work_.end(), first, last);
  }

  // Trace-correlation id assigned by Runtime::Dispatch (0 = unassigned).
  // Dispatch copies it into every per-worker slot, so the whole fan-out
  // shares one async track.
  std::uint64_t flow_id() const { return flow_id_; }
  void set_flow_id(std::uint64_t id) { flow_id_ = id; }

  // Dispatch-time cycle stamp (0 = unstamped), carried through fan-out
  // exactly like flow_id, so the delivery-side read measures true
  // end-to-end latency — including queue wait — not just pipeline time.
  std::uint64_t dispatch_tsc() const { return dispatch_tsc_; }
  void set_dispatch_tsc(std::uint64_t tsc) { dispatch_tsc_ = tsc; }

 private:
  std::vector<FlowWork> work_;
  std::uint64_t flow_id_ = 0;
  std::uint64_t dispatch_tsc_ = 0;
};

// How long either side of a ring polls before it parks; an idle worker
// gives its core back within tens of microseconds. A worker starts polling
// only once it has finished its sub-batch, so the poll spans the gap to the
// next burst only when bursts come less than 50 µs plus one sub-batch's
// service time apart. nfbench's fwd64 open loop (a 32-flow burst every
// 16 µs) parked its workers 127–192 times in 187500 bursts; mbox_ckpt's
// (one every 64 µs) parked them before 45–54% of its 93750 sub-batches,
// each such park costing the next Dispatch a futex wake (6 s runs on a
// 4-vCPU VM; DESIGN.md §9).
inline constexpr std::chrono::microseconds kPollBeforePark{50};

class RssDispatcher {
 public:
  // `queue_depth` slots per worker ring (backpressure, like NIC ring sizes);
  // it must be positive. Each park of a worker on its empty ring counts in
  // `worker_parks` (shard = worker index), each park of a producer on a full
  // ring in `dispatch_waits`; either may be null.
  RssDispatcher(std::size_t workers, std::size_t queue_depth,
                obs::Counter* worker_parks = nullptr,
                obs::Counter* dispatch_waits = nullptr)
      : seed_(0x5ca1ab1eULL) {
    LINSYS_ASSERT(workers > 0, "RSS needs at least one worker");
    LINSYS_ASSERT(queue_depth > 0, "RSS rings need a positive queue_depth");
    for (std::size_t i = 0; i < workers; ++i) {
      rings_.push_back(
          std::make_unique<Ring>(queue_depth, i, worker_parks, dispatch_waits));
    }
  }

  // Steers every item of `batch` to its worker's ring, as one sub-batch per
  // worker per call. Consumes the input batch. Blocks while a target ring is
  // full. Returns the number of sub-batches published. A closed ring refuses
  // its sub-batch; the refusal and its item count are recorded in
  // refused_sub_batches()/dropped_items(). An injected channel.send panic
  // fires once per call, before any share is published.
  std::size_t Dispatch(FlowBatch batch) {
    dispatch_calls_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = batch.size();
    const std::size_t workers = rings_.size();
    // Each item's worker, each worker's share, the scatter cursors and the
    // burst grouped by worker, kept per thread so the steady state
    // allocates nothing.
    thread_local std::vector<std::uint32_t> home;
    thread_local std::vector<std::uint32_t> share;
    thread_local std::vector<std::uint32_t> next;
    thread_local std::vector<FlowWork> grouped;
    home.resize(n);
    share.assign(workers, 0);
    next.resize(workers);
    grouped.resize(n);
    const auto items = batch.begin();
    for (std::size_t i = 0; i < n; ++i) {
      home[i] = static_cast<std::uint32_t>(WorkerForTuple(items[i].tuple));
      ++share[home[i]];
    }
    // Stable counting sort: each share becomes one contiguous range of
    // `grouped`, in arrival order, so per-flow order survives the fan-out.
    std::uint32_t offset = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      next[w] = offset;
      offset += share[w];
    }
    for (std::size_t i = 0; i < n; ++i) {
      grouped[next[home[i]]++] = items[i];
    }
    // Fires before any ring is touched: an injected panic leaves every ring
    // as it was, so a refused batch published none of its shares.
    LINSYS_FAULT_POINT("channel.send");
    std::size_t sent = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      if (share[w] == 0) {
        continue;
      }
      // The scatter left next[w] at the end of share w.
      const FlowWork* last = grouped.data() + next[w];
      const bool published = rings_[w]->Publish([&](FlowBatch& slot) {
        slot.Clear();
        slot.Reserve(n);  // one growth per slot for a given burst size
        slot.Append(last - share[w], last);
        slot.set_flow_id(batch.flow_id());
        slot.set_dispatch_tsc(batch.dispatch_tsc());
      });
      if (published) {
        sub_batches_steered_.fetch_add(1, std::memory_order_relaxed);
        ++sent;
      } else {
        refused_sub_batches_.fetch_add(1, std::memory_order_relaxed);
        dropped_items_.fetch_add(share[w], std::memory_order_relaxed);
      }
    }
    return sent;
  }

  // The worker side, one thread per ring. Await polls, then parks, until
  // `worker`'s ring has a published slot (true) or is closed and drained
  // (false). Take then swaps the oldest published slot's batch with `spare`
  // and releases the slot; it requires a preceding Await() == true.
  bool Await(std::size_t worker) { return ring(worker).Await(); }
  void Take(std::size_t worker, FlowBatch& spare) { ring(worker).Take(spare); }

  // Which worker a flow maps to, fixed for the dispatcher's lifetime: the
  // tuple as two 64-bit words, each mixed in by a seeded finalizer, then the
  // hash's low 32 bits range-reduced by multiply-shift instead of a divide.
  // (FiveTuple::Hash, byte-wise, stays the key of flow tables and Maglev.)
  std::size_t WorkerForTuple(const FiveTuple& tuple) const {
    const std::uint64_t addrs =
        (std::uint64_t{tuple.src_ip} << 32) | tuple.dst_ip;
    const std::uint64_t ports = (std::uint64_t{tuple.src_port} << 24) |
                                (std::uint64_t{tuple.dst_port} << 8) |
                                tuple.proto;
    const std::uint64_t h = util::Mix64(util::Mix64(seed_ ^ addrs) ^ ports);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h)) *
         rings_.size()) >>
        32);
  }

  // Published, not yet taken slots on `worker`'s ring: an advisory snapshot
  // for gauges and pacing.
  std::size_t QueueDepth(std::size_t worker) const {
    return ring(worker).Depth();
  }
  // The deepest `worker`'s ring has been when its worker took a slot.
  std::size_t QueueHwm(std::size_t worker) const { return ring(worker).Hwm(); }

  // Queue-depth spread across workers (max - min), read by the
  // runtime.queue_imbalance gauge.
  std::size_t QueueImbalance() const {
    std::size_t min_depth = SIZE_MAX;
    std::size_t max_depth = 0;
    for (const auto& r : rings_) {
      const std::size_t depth = r->Depth();
      min_depth = std::min(min_depth, depth);
      max_depth = std::max(max_depth, depth);
    }
    return max_depth - min_depth;
  }

  // Closes every ring: later publishes are refused, parked producers are
  // refused, and each worker's Await returns false once its ring is drained.
  void Shutdown() {
    for (auto& r : rings_) {
      r->Close();
    }
  }

  // Number of Dispatch() calls — i.e. input batches steered.
  std::uint64_t batches_steered() const {
    return dispatch_calls_.load(std::memory_order_relaxed);
  }
  // Total per-worker sub-batches published across all Dispatch() calls.
  std::uint64_t sub_batches_steered() const {
    return sub_batches_steered_.load(std::memory_order_relaxed);
  }
  // Sub-batches refused by a closed ring, and the items those refusals
  // dropped. Nonzero only when Dispatch raced a Shutdown.
  std::uint64_t refused_sub_batches() const {
    return refused_sub_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_items() const {
    return dropped_items_.load(std::memory_order_relaxed);
  }

 private:
  // One worker's bounded ring. head_/tail_ count slots taken/published since
  // construction; slot k lives at k % depth.
  class Ring {
   public:
    Ring(std::size_t depth, std::size_t worker, obs::Counter* worker_parks,
         obs::Counter* dispatch_waits)
        : slots_(depth),
          worker_(worker),
          worker_parks_(worker_parks),
          dispatch_waits_(dispatch_waits) {}

    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;

    // Producer side: waits for a free slot, lets `fill` write it, and
    // publishes it. Returns false, with nothing filled, once the ring is
    // closed.
    template <typename Fill>
    bool Publish(Fill&& fill) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!WaitForRoom(lock)) {
        return false;
      }
      const std::uint64_t t = tail_.load(std::memory_order_relaxed);
      fill(slots_[t % slots_.size()].batch);
      // seq_cst: the store half of the handshake with Await's park.
      tail_.store(t + 1, std::memory_order_seq_cst);
      lock.unlock();
      if (worker_parked_.load(std::memory_order_seq_cst) != 0) {
        worker_parked_.store(0, std::memory_order_seq_cst);
        worker_parked_.notify_one();
      }
      return true;
    }

    bool Await() {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      if (tail_.load(std::memory_order_acquire) != h) {
        return true;
      }
      const auto poll_end = std::chrono::steady_clock::now() + kPollBeforePark;
      while (true) {
        for (int i = 0; i < 64; ++i) {
          if (tail_.load(std::memory_order_acquire) != h) {
            return true;
          }
          // closed_ is set after the last publish (both under mu_), so once
          // it reads true the tail is final.
          if (closed_.load(std::memory_order_acquire)) {
            return tail_.load(std::memory_order_acquire) != h;
          }
          CpuRelax();
        }
        if (std::chrono::steady_clock::now() < poll_end) {
          std::this_thread::yield();  // see "Waiting" above
          continue;
        }
        // Announce, then re-check: a publish or Close either sees the
        // announcement and wakes us, or lands before the re-check.
        worker_parked_.store(1, std::memory_order_seq_cst);
        if (tail_.load(std::memory_order_seq_cst) != h ||
            closed_.load(std::memory_order_seq_cst)) {
          worker_parked_.store(0, std::memory_order_relaxed);
          continue;
        }
        if (worker_parks_ != nullptr) {
          worker_parks_->Inc(worker_);
        }
        worker_parked_.wait(1, std::memory_order_seq_cst);
      }
    }

    void Take(FlowBatch& spare) {
      // Fires before the slot is taken: an injected panic leaves it
      // published for the next Take.
      LINSYS_FAULT_POINT("channel.recv");
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::uint64_t t = tail_.load(std::memory_order_acquire);
      LINSYS_ASSERT(t != h, "Take needs a published slot (call Await first)");
      // Single writer, like Mempool's in_use_hwm: a compare, and a plain
      // store only when the depth found here is a new high.
      if (t - h > hwm_.load(std::memory_order_relaxed)) {
        hwm_.store(t - h, std::memory_order_relaxed);
      }
      std::swap(slots_[h % slots_.size()].batch, spare);
      // seq_cst: the store half of the handshake with a producer's park.
      head_.store(h + 1, std::memory_order_seq_cst);
      // One wake per park: the first take after a producer announced clears
      // the announcement, so the takes behind it make no syscall.
      if (producer_wake_wanted_.load(std::memory_order_seq_cst) != 0 &&
          producer_wake_wanted_.exchange(0, std::memory_order_seq_cst) != 0) {
        WakeProducers();
      }
    }

    void Close() {
      {
        std::lock_guard<std::mutex> lock(mu_);
        closed_.store(true, std::memory_order_seq_cst);
      }
      WakeProducers();
      worker_parked_.store(0, std::memory_order_seq_cst);
      worker_parked_.notify_one();
    }

    std::size_t Depth() const {
      // Acquire on head: the worker advanced it only after reading a tail at
      // least that far, so the tail read below cannot be behind it.
      const std::uint64_t h = head_.load(std::memory_order_acquire);
      const std::uint64_t t = tail_.load(std::memory_order_acquire);
      return static_cast<std::size_t>(
          std::min<std::uint64_t>(t - h, slots_.size()));
    }
    std::size_t Hwm() const {
      return static_cast<std::size_t>(hwm_.load(std::memory_order_relaxed));
    }

   private:
    // Padded so a producer filling one slot and the worker taking the next do
    // not share a cache line.
    struct alignas(64) Slot {
      FlowBatch batch;
    };

    static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }

    void WakeProducers() {
      room_seq_.fetch_add(1, std::memory_order_seq_cst);
      room_seq_.notify_all();
    }

    // Called and returns with mu_ held; true once a slot is free, false once
    // the ring is closed. Polls with the lock held, then parks without it.
    bool WaitForRoom(std::unique_lock<std::mutex>& lock) {
      bool polling = false;
      std::chrono::steady_clock::time_point poll_end;
      while (true) {
        if (closed_.load(std::memory_order_relaxed)) {
          return false;
        }
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_seen_ < slots_.size()) {
          return true;
        }
        head_seen_ = head_.load(std::memory_order_acquire);
        if (t - head_seen_ < slots_.size()) {
          return true;
        }
        if (!polling) {
          polling = true;
          poll_end = std::chrono::steady_clock::now() + kPollBeforePark;
        }
        if (std::chrono::steady_clock::now() < poll_end) {
          for (int i = 0; i < 64; ++i) {
            CpuRelax();
          }
          std::this_thread::yield();  // see "Waiting" above
          continue;
        }
        // Park with the lock released, so Close can take it. Several
        // producers may park at once, so parking is an event count: read the
        // wake sequence, announce, re-check, and sleep only while no wake has
        // been issued since the read.
        const std::uint64_t seen = head_seen_;
        lock.unlock();
        const std::uint32_t seq = room_seq_.load(std::memory_order_seq_cst);
        producer_wake_wanted_.store(1, std::memory_order_seq_cst);
        if (head_.load(std::memory_order_seq_cst) == seen &&
            !closed_.load(std::memory_order_seq_cst)) {
          if (dispatch_waits_ != nullptr) {
            dispatch_waits_->Inc();
          }
          room_seq_.wait(seq, std::memory_order_seq_cst);
        }
        lock.lock();
        polling = false;
      }
    }

    // Read-only after construction; Take and Await read slots_ and worker_.
    std::vector<Slot> slots_;
    const std::size_t worker_;
    obs::Counter* const worker_parks_;
    obs::Counter* const dispatch_waits_;

    // Producer-only state on its own line: a publish writes the lock word,
    // which would otherwise take away the line holding slots_ from the
    // worker's next Take.
    alignas(64) std::mutex mu_;  // guards publishing, head_seen_, closing
    std::uint64_t head_seen_ = 0;  // producer's cached head_, under mu_
    alignas(64) std::atomic<std::uint64_t> tail_{0};  // written under mu_
    alignas(64) std::atomic<std::uint64_t> head_{0};  // written by the worker
    std::atomic<std::uint64_t> hwm_{0};  // written by the worker, in Take
    alignas(64) std::atomic<bool> closed_{false};     // written under mu_
    std::atomic<std::uint32_t> worker_parked_{0};     // the one worker's flag
    std::atomic<std::uint32_t> producer_wake_wanted_{0};  // a producer parks
    std::atomic<std::uint32_t> room_seq_{0};  // bumped per producer wake
  };

  Ring& ring(std::size_t worker) const {
    LINSYS_ASSERT(worker < rings_.size(), "worker index out of range");
    return *rings_[worker];
  }

  // Read-only after construction; every worker reads rings_ through ring()
  // on each iteration.
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Ring>> rings_;
  // Written by every Dispatch: kept off the line above (and, through the
  // class's alignment, off whatever the owner places after the dispatcher).
  alignas(64) std::atomic<std::uint64_t> dispatch_calls_{0};
  std::atomic<std::uint64_t> sub_batches_steered_{0};
  std::atomic<std::uint64_t> refused_sub_batches_{0};
  std::atomic<std::uint64_t> dropped_items_{0};
};

}  // namespace net

#endif  // LINSYS_SRC_NET_RSS_H_
