// RSS dispatcher: flow-to-worker affinity, packet conservation across the
// zero-copy handoff, counter semantics, backpressure, shutdown, and a real
// multi-threaded run with per-worker NFs.
#include "src/net/rss.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/net/mempool.h"
#include "src/net/operators/nat.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"  // FlowBatch/FlowWork for bufferless steering
#include "src/util/panic.h"

namespace net {
namespace {

PacketBatch Traffic(Mempool& pool, std::uint64_t seed, std::size_t n,
                    std::size_t flows = 64) {
  PktSourceConfig cfg;
  cfg.flow_count = flows;
  cfg.seed = seed;
  PktSource src(&pool, cfg);
  PacketBatch batch(n);
  src.RxBurst(batch, n);
  return batch;
}

TEST(Rss, AllPacketsReachExactlyOneWorker) {
  Mempool pool(512, 2048);
  RssDispatcher rss(4, /*queue_depth=*/0);
  rss.Dispatch(Traffic(pool, 1, 256));
  rss.Shutdown();
  EXPECT_EQ(pool.in_use(), 256u) << "packets alive in worker queues";

  std::size_t total = 0;
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (auto batch = rss.queue(w).TryRecv()) {
      total += (*batch).Borrow()->size();
      // the Own<PacketBatch> drops here, returning its buffers
    }
  }
  EXPECT_EQ(total, 256u) << "conservation across the handoff";
  EXPECT_EQ(pool.in_use(), 0u) << "drained batches returned their buffers";
}

TEST(Rss, FlowAffinityIsStable) {
  Mempool pool(4096, 2048);
  RssDispatcher rss(8);
  // The same flow must map to the same worker on every packet.
  PacketBatch batch = Traffic(pool, 2, 512);
  std::map<std::uint32_t, std::size_t> flow_to_worker;
  for (PacketBuf& pkt : batch) {
    const auto src_ip = pkt.Tuple().src_ip;
    const std::size_t worker = rss.WorkerFor(pkt);
    auto [it, inserted] = flow_to_worker.emplace(src_ip, worker);
    if (!inserted) {
      EXPECT_EQ(it->second, worker) << "flow split across workers";
    }
  }
  // And with 64 flows over 8 workers, more than one worker is used.
  std::set<std::size_t> used;
  for (const auto& [flow, worker] : flow_to_worker) {
    used.insert(worker);
  }
  EXPECT_GT(used.size(), 3u) << "hash spreads flows";
}

TEST(Rss, DispatcherCannotTouchSteeredBatches) {
  Mempool pool(64, 2048);
  RssDispatcher rss(1, 0);
  PacketBatch batch = Traffic(pool, 3, 8);
  rss.Dispatch(std::move(batch));
  // The moved-from batch is empty; the packets now belong to the worker.
  EXPECT_EQ(batch.size(), 0u);
  auto received = rss.queue(0).TryRecv();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ((*received).Borrow()->size(), 8u);
}

TEST(Rss, BatchesSteeredCountsDispatchCallsNotSubBatches) {
  Mempool pool(512, 2048);
  RssDispatcher rss(4, /*queue_depth=*/0);
  // One input batch with many flows fans out into up to 4 sub-batches; the
  // input-batch counter must still read 1 (it used to over-report by
  // counting the fan-out).
  rss.Dispatch(Traffic(pool, 7, 128));
  EXPECT_EQ(rss.batches_steered(), 1u);
  EXPECT_GE(rss.sub_batches_steered(), 1u);
  EXPECT_LE(rss.sub_batches_steered(), 4u);
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    per_worker_sum += rss.steered_to(w);
  }
  EXPECT_EQ(per_worker_sum, rss.sub_batches_steered());

  rss.Dispatch(Traffic(pool, 8, 128));
  EXPECT_EQ(rss.batches_steered(), 2u);

  rss.Shutdown();
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (rss.queue(w).TryRecv()) {
    }
  }
}

TEST(Rss, ConcurrentDispatchKeepsAffinityAndExactCounters) {
  // Two producers steer flow descriptors concurrently (descriptors, not
  // buffers: mempools are single-owner, so the bufferless FlowBatch flavour
  // is the one that legitimately admits multi-producer dispatch).
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatchesPerProducer = 100;
  constexpr std::size_t kBatchSize = 32;

  BasicRssDispatcher<FlowBatch> rss(kWorkers, /*queue_depth=*/0);

  std::atomic<std::size_t> received{0};
  std::atomic<bool> misrouted{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &received, &misrouted, w] {
      while (auto handle = rss.queue(w).Recv()) {
        FlowBatch batch = handle->Take();
        for (const FlowWork& fw : batch) {
          if (rss.WorkerForTuple(fw.tuple) != w) {
            misrouted = true;
          }
        }
        received += batch.size();
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&rss, p] {
      FlowSampler sampler(64, 0.0, 1000 + static_cast<std::uint64_t>(p));
      FlowFeeder feeder(&sampler);
      for (int i = 0; i < kBatchesPerProducer; ++i) {
        rss.Dispatch(feeder.Next(kBatchSize));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }

  EXPECT_FALSE(misrouted.load()) << "flow steered to the wrong worker";
  EXPECT_EQ(received.load(), 2u * kBatchesPerProducer * kBatchSize);
  EXPECT_EQ(rss.batches_steered(), 2u * kBatchesPerProducer)
      << "dispatch-call counter must be exact under concurrent producers";
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    per_worker_sum += rss.steered_to(w);
  }
  EXPECT_EQ(per_worker_sum, rss.sub_batches_steered());
}

TEST(Rss, BackpressureBlocksDispatchAtQueueDepth) {
  // One worker, depth 2, nobody draining: the first two dispatches fill the
  // ring, the third must block until a slot frees up.
  BasicRssDispatcher<FlowBatch> rss(1, /*queue_depth=*/2);
  FlowSampler sampler(8, 0.0, 5);
  FlowFeeder feeder(&sampler);
  rss.Dispatch(feeder.Next(4));
  rss.Dispatch(feeder.Next(4));
  ASSERT_EQ(rss.queue(0).size(), 2u);

  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    rss.Dispatch(feeder.Next(4));
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load()) << "dispatch must block on a full queue";

  ASSERT_TRUE(rss.queue(0).Recv().has_value());  // free one slot
  producer.join();
  EXPECT_TRUE(third_done.load());
  rss.Shutdown();
  while (rss.queue(0).TryRecv()) {
  }
}

TEST(Rss, ShutdownWakesWorkersBlockedInReceive) {
  constexpr std::size_t kWorkers = 3;
  RssDispatcher rss(kWorkers, /*queue_depth=*/4);
  std::atomic<std::size_t> exited{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &exited, w] {
      // Nothing is ever dispatched: every worker parks inside Recv().
      while (rss.queue(w).Recv()) {
      }
      ++exited;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(exited.load(), 0u) << "workers should be blocked in Recv";
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(exited.load(), kWorkers) << "close must wake and release all";
}

TEST(Rss, MultiThreadedWorkersProcessEverything) {
  constexpr std::size_t kWorkers = 3;
  constexpr int kBatches = 50;
  constexpr std::size_t kBatchSize = 32;

  Mempool pool(4096, 2048);
  RssDispatcher rss(kWorkers, /*queue_depth=*/16);

  // The pool is owned by this (dispatching) thread, so workers must not
  // destroy packets: they process and *stash* the batches, and the owning
  // thread reclaims the buffers after the workers are done (mempool.h's
  // single-owner contract; net::Runtime avoids the stash by giving every
  // worker its own pool and steering descriptors instead).
  std::atomic<std::size_t> processed{0};
  std::vector<std::vector<PacketBatch>> stashes(kWorkers);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &processed, &stashes, w] {
      NatRewrite nat(0x05050505);  // per-worker state: no locks needed
      while (auto handle = rss.queue(w).Recv()) {
        PacketBatch batch = handle->Take();
        PacketBatch out = nat.Process(std::move(batch));
        processed += out.size();
        stashes[w].push_back(std::move(out));
      }
    });
  }

  for (int i = 0; i < kBatches; ++i) {
    rss.Dispatch(Traffic(pool, 100 + static_cast<std::uint64_t>(i),
                         kBatchSize));
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(processed.load(), kBatches * kBatchSize);
  EXPECT_EQ(pool.in_use(), kBatches * kBatchSize)
      << "buffers still alive in the stashes";
  stashes.clear();  // owner thread returns every buffer
  EXPECT_EQ(pool.in_use(), 0u) << "all buffers returned after processing";
}

// Silent-loss bugfix: a sub-batch refused by a closed worker channel used
// to disappear without a trace (`sent < expected` was invisible). The
// refusal and its item count are now first-class counters.
TEST(Rss, DispatchAfterShutdownCountsRefusalsAndDroppedItems) {
  BasicRssDispatcher<FlowBatch> rss(2, /*queue_depth=*/0);
  FlowSampler sampler(16, 0.0, 9);
  FlowFeeder feeder(&sampler);
  EXPECT_GE(rss.Dispatch(feeder.Next(32)), 1u);
  EXPECT_EQ(rss.refused_sub_batches(), 0u);
  EXPECT_EQ(rss.dropped_items(), 0u);

  rss.Shutdown();
  EXPECT_EQ(rss.Dispatch(feeder.Next(32)), 0u)
      << "closed channels refuse every sub-batch";
  EXPECT_GE(rss.refused_sub_batches(), 1u);
  EXPECT_LE(rss.refused_sub_batches(), 2u);
  EXPECT_EQ(rss.dropped_items(), 32u)
      << "every dropped item must be accounted";
  for (std::size_t w = 0; w < rss.worker_count(); ++w) {
    while (rss.queue(w).TryRecv()) {
    }
  }
}

TEST(Rss, ZeroWorkersRejected) {
  EXPECT_THROW(RssDispatcher rss(0), util::PanicError);
}

TEST(Rss, OutOfRangeQueuePanics) {
  RssDispatcher rss(2);
  EXPECT_THROW((void)rss.queue(5), util::PanicError);
}

}  // namespace
}  // namespace net
