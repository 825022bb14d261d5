// Receive-side scaling (RSS): the NIC feature the DPDK simulator's users
// expect — hash each packet's 5-tuple and steer it to one of N worker
// queues, so one flow always lands on one worker (no cross-core flow state).
//
// The handoff uses sfi::Channel, i.e. it is a zero-copy ownership transfer:
// the dispatcher provably cannot touch a batch after steering it, which is
// what makes lock-free per-worker flow tables sound (§3's argument applied
// across threads instead of domains).
//
// BasicRssDispatcher is generic over the steered batch type: the classic
// instantiation (RssDispatcher) steers PacketBatch, while net::Runtime
// steers FlowBatch — flow *descriptors* rather than buffers — so that
// packet memory is always allocated and freed on the worker that owns the
// pool (see mempool.h's single-owner contract). Any batch type works if it
// is movable, iterable, and its items expose Tuple().
//
// Dispatch may be called from multiple producer threads concurrently
// (sfi::Channel is MPMC); the steering counters are relaxed atomics so the
// telemetry stays exact under concurrent dispatch.
//
// A flow never changes workers: routing is hash % workers for the life of
// the dispatcher, so each flow's state lives on exactly one replica
// (DESIGN.md §9 "Flow pinning").
#ifndef LINSYS_SRC_NET_RSS_H_
#define LINSYS_SRC_NET_RSS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/lin/own.h"
#include "src/net/batch.h"
#include "src/net/headers.h"
#include "src/sfi/channel.h"
#include "src/util/panic.h"

namespace net {

template <typename Batch>
class BasicRssDispatcher {
 public:
  // `queue_depth` bounds each worker channel (backpressure, like NIC ring
  // sizes); 0 = unbounded.
  explicit BasicRssDispatcher(std::size_t workers, std::size_t queue_depth = 64)
      : seed_(0x5ca1ab1eULL), per_worker_steered_(workers) {
    LINSYS_ASSERT(workers > 0, "RSS needs at least one worker");
    for (std::size_t i = 0; i < workers; ++i) {
      queues_.push_back(std::make_unique<sfi::Channel<Batch>>(queue_depth));
    }
  }

  // Steers every item of `batch` to its worker queue, grouped into one
  // sub-batch per worker per call. Consumes the input batch. Returns the
  // number of sub-batches actually enqueued. A closed channel refuses its
  // sub-batch; the refusal and its item count are recorded in
  // refused_sub_batches()/dropped_items() — never lost silently.
  std::size_t Dispatch(Batch batch) {
    dispatch_calls_.fetch_add(1, std::memory_order_relaxed);
    std::vector<Batch> per_worker(queues_.size());
    for (auto& item : batch) {
      per_worker[WorkerForTuple(item.Tuple())].Push(std::move(item));
    }
    // Flow-id propagation: batch types carrying a dispatch-assigned flow id
    // (FlowBatch) stamp it onto every per-worker sub-batch, so the id
    // follows the work across the channel and the worker can re-enter the
    // flow's trace context. Batch types without one (PacketBatch) compile
    // this out.
    if constexpr (requires { per_worker[0].set_flow_id(batch.flow_id()); }) {
      for (auto& sub : per_worker) {
        sub.set_flow_id(batch.flow_id());
      }
    }
    // Same for the dispatch-time SLO stamp: every sub-batch inherits the
    // moment the whole batch entered the runtime.
    if constexpr (requires {
                    per_worker[0].set_dispatch_tsc(batch.dispatch_tsc());
                  }) {
      for (auto& sub : per_worker) {
        sub.set_dispatch_tsc(batch.dispatch_tsc());
      }
    }
    std::size_t sent = 0;
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      if (per_worker[w].empty()) {
        continue;
      }
      const std::size_t items = per_worker[w].size();
      auto result =
          queues_[w]->Send(lin::Own<Batch>::Make(std::move(per_worker[w])));
      if (result.ok) {
        sub_batches_steered_.fetch_add(1, std::memory_order_relaxed);
        per_worker_steered_[w].fetch_add(1, std::memory_order_relaxed);
        ++sent;
      } else {
        refused_sub_batches_.fetch_add(1, std::memory_order_relaxed);
        dropped_items_.fetch_add(items, std::memory_order_relaxed);
      }
    }
    return sent;
  }

  // Which worker an item's flow maps to: the seeded 5-tuple hash modulo the
  // worker count, fixed for the dispatcher's lifetime.
  template <typename Item>
  std::size_t WorkerFor(const Item& item) const {
    return WorkerForTuple(item.Tuple());
  }
  std::size_t WorkerForTuple(const FiveTuple& tuple) const {
    return static_cast<std::size_t>(tuple.Hash(seed_) % queues_.size());
  }

  // Queue-depth spread across workers (max - min), read by the
  // runtime.queue_imbalance gauge.
  std::size_t QueueImbalance() const {
    std::size_t min_depth = SIZE_MAX;
    std::size_t max_depth = 0;
    for (const auto& queue : queues_) {
      const std::size_t depth = queue->size();
      min_depth = depth < min_depth ? depth : min_depth;
      max_depth = depth > max_depth ? depth : max_depth;
    }
    return queues_.empty() ? 0 : max_depth - min_depth;
  }

  // The worker side: blocking receive of the next steered sub-batch.
  sfi::Channel<Batch>& queue(std::size_t worker) {
    LINSYS_ASSERT(worker < queues_.size(), "worker index out of range");
    return *queues_[worker];
  }

  void Shutdown() {
    for (auto& queue : queues_) {
      queue->Close();
    }
  }

  std::size_t worker_count() const { return queues_.size(); }

  // Number of Dispatch() calls — i.e. input batches steered. (This used to
  // count per-worker sub-batches, which over-reported by up to worker_count
  // per call; sub-batch counts live in sub_batches_steered() now.)
  std::uint64_t batches_steered() const {
    return dispatch_calls_.load(std::memory_order_relaxed);
  }
  // Total per-worker sub-batches enqueued across all Dispatch() calls.
  std::uint64_t sub_batches_steered() const {
    return sub_batches_steered_.load(std::memory_order_relaxed);
  }
  // Sub-batches enqueued to one specific worker.
  std::uint64_t steered_to(std::size_t worker) const {
    LINSYS_ASSERT(worker < per_worker_steered_.size(),
                  "worker index out of range");
    return per_worker_steered_[worker].load(std::memory_order_relaxed);
  }
  // Sub-batches refused by a closed worker channel, and the items those
  // refusals dropped. Nonzero only when Dispatch raced a Shutdown.
  std::uint64_t refused_sub_batches() const {
    return refused_sub_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_items() const {
    return dropped_items_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::unique_ptr<sfi::Channel<Batch>>> queues_;
  std::atomic<std::uint64_t> dispatch_calls_{0};
  std::atomic<std::uint64_t> sub_batches_steered_{0};
  std::atomic<std::uint64_t> refused_sub_batches_{0};
  std::atomic<std::uint64_t> dropped_items_{0};
  std::vector<std::atomic<std::uint64_t>> per_worker_steered_;
};

// The classic NIC-shaped instantiation: steer already-built packets.
using RssDispatcher = BasicRssDispatcher<PacketBatch>;

}  // namespace net

#endif  // LINSYS_SRC_NET_RSS_H_
