// RSS dispatcher: flow-to-worker affinity, item conservation across the
// slot-ring handoff, counter semantics, backpressure and parking on full and
// empty rings, shutdown racing dispatch, an allocation-free steady state,
// and a failed allocation contained on the dispatch and worker paths.
#include "src/net/rss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"  // FlowFeeder
#include "src/obs/metrics.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

// Heap allocations made by threads that set g_count_allocs: this binary
// replaces the global operator new so the steady-state dispatch path can be
// held to zero allocations. It also fails one allocation on demand: set
// g_bad_alloc_tag to a FaultInjector thread tag, and the next allocation on
// the thread carrying that tag throws std::bad_alloc.
namespace {
thread_local bool g_count_allocs = false;
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<const char*> g_bad_alloc_tag{nullptr};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const char* tag = g_bad_alloc_tag.load(std::memory_order_acquire);
  if (tag != nullptr && util::FaultInjector::ThreadTag() == tag &&
      g_bad_alloc_tag.compare_exchange_strong(tag, nullptr)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// Kept out of line: inlined into a caller, GCC pairs the free() with the
// new-expression and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace net {
namespace {

// Drains `worker`'s ring on the calling thread; returns the items taken.
// Non-blocking only once the ring is closed (Await parks on an open, empty
// ring).
std::size_t DrainClosed(RssDispatcher& rss, std::size_t worker) {
  std::size_t items = 0;
  FlowBatch batch;
  while (rss.Await(worker)) {
    rss.Take(worker, batch);
    items += batch.size();
  }
  return items;
}

TEST(Rss, AllItemsReachExactlyOneWorker) {
  constexpr std::size_t kWorkers = 4;
  RssDispatcher rss(kWorkers, /*queue_depth=*/8);
  FlowSampler sampler(64, 0.0, 1);
  FlowFeeder feeder(&sampler);
  rss.Dispatch(feeder.Next(256));
  rss.Shutdown();

  std::size_t total = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    FlowBatch batch;
    while (rss.Await(w)) {
      rss.Take(w, batch);
      for (const FlowWork& fw : batch) {
        EXPECT_EQ(rss.WorkerForTuple(fw.tuple), w) << "item on a foreign ring";
      }
      total += batch.size();
    }
  }
  EXPECT_EQ(total, 256u) << "conservation across the handoff";
}

TEST(Rss, FlowAffinityIsStable) {
  RssDispatcher rss(8, /*queue_depth=*/4);
  FlowSampler sampler(64, 0.0, 2);
  std::map<std::uint32_t, std::size_t> flow_to_worker;
  for (int i = 0; i < 512; ++i) {
    const FiveTuple& tuple = sampler.Pick();
    const std::size_t worker = rss.WorkerForTuple(tuple);
    auto [it, inserted] = flow_to_worker.emplace(tuple.src_ip, worker);
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

// Placement spreads distinct flows evenly at any worker count, including
// ones that are not a power of two (the multiply-shift reduction has no
// modulus to favour them). Two flow sets: the sampler's (random client
// addresses, consecutive source ports), and consecutive client addresses
// behind one port pair, which only a hash that mixes the address word
// spreads.
TEST(Rss, PlacementSpreadsFlowsEvenly) {
  constexpr std::size_t kFlows = 4096;
  FlowSampler sampler(kFlows, 0.0, 21);
  std::vector<FiveTuple> sampled;
  std::vector<FiveTuple> consecutive;
  for (std::size_t i = 0; i < kFlows; ++i) {
    sampled.push_back(sampler.FlowAt(i));
    FiveTuple t;
    t.src_ip = 0x0a000000u + static_cast<std::uint32_t>(i);
    t.dst_ip = 0xc0a80001u;
    t.src_port = 40000;
    t.dst_port = 80;
    consecutive.push_back(t);
  }
  for (const std::vector<FiveTuple>* flows : {&sampled, &consecutive}) {
    for (const std::size_t workers : {1u, 2u, 3u, 5u, 8u}) {
      RssDispatcher rss(workers, /*queue_depth=*/1);
      std::vector<std::size_t> flows_on(workers, 0);
      for (const FiveTuple& tuple : *flows) {
        const std::size_t w = rss.WorkerForTuple(tuple);
        ASSERT_LT(w, workers);
        ++flows_on[w];
      }
      const std::size_t busiest =
          *std::max_element(flows_on.begin(), flows_on.end());
      EXPECT_LE(static_cast<double>(busiest),
                1.15 * static_cast<double>(kFlows) /
                    static_cast<double>(workers))
          << workers << " workers: the busiest holds " << busiest
          << " flows (" << (flows == &sampled ? "sampled" : "consecutive")
          << " set)";
    }
  }
}

TEST(Rss, DispatchConsumesItsBatch) {
  RssDispatcher rss(1, /*queue_depth=*/2);
  FlowSampler sampler(8, 0.0, 3);
  FlowFeeder feeder(&sampler);
  FlowBatch batch = feeder.Next(8);
  batch.set_flow_id(77);
  batch.set_dispatch_tsc(1234);
  rss.Dispatch(std::move(batch));
  // The moved-from batch is empty; the items now sit in the worker's slot,
  // with the batch's stamps.
  EXPECT_EQ(batch.size(), 0u);
  ASSERT_TRUE(rss.Await(0));
  FlowBatch received;
  rss.Take(0, received);
  EXPECT_EQ(received.size(), 8u);
  EXPECT_EQ(received.flow_id(), 77u);
  EXPECT_EQ(received.dispatch_tsc(), 1234u);
}

TEST(Rss, BatchesSteeredCountsDispatchCallsNotSubBatches) {
  constexpr std::size_t kWorkers = 4;
  RssDispatcher rss(kWorkers, /*queue_depth=*/4);
  FlowSampler sampler(64, 0.0, 7);
  FlowFeeder feeder(&sampler);
  // One input batch with many flows fans out into up to 4 sub-batches; the
  // input-batch counter must still read 1.
  rss.Dispatch(feeder.Next(128));
  EXPECT_EQ(rss.batches_steered(), 1u);
  EXPECT_GE(rss.sub_batches_steered(), 1u);
  EXPECT_LE(rss.sub_batches_steered(), 4u);

  rss.Dispatch(feeder.Next(128));
  EXPECT_EQ(rss.batches_steered(), 2u);
  rss.Shutdown();
  // Every sub-batch counted as steered is one slot some worker takes.
  std::uint64_t slots_taken = 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    FlowBatch batch;
    while (rss.Await(w)) {
      rss.Take(w, batch);
      ++slots_taken;
    }
  }
  EXPECT_EQ(slots_taken, rss.sub_batches_steered());
}

TEST(Rss, ConcurrentDispatchKeepsAffinityAndExactCounters) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatchesPerProducer = 100;
  constexpr std::size_t kBatchSize = 32;

  RssDispatcher rss(kWorkers, /*queue_depth=*/8);

  std::atomic<std::size_t> received{0};
  std::atomic<std::uint64_t> slots_taken{0};
  std::atomic<bool> misrouted{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &received, &slots_taken, &misrouted, w] {
      FlowBatch batch;
      while (rss.Await(w)) {
        rss.Take(w, batch);
        ++slots_taken;
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
  EXPECT_EQ(slots_taken.load(), rss.sub_batches_steered());
}

TEST(Rss, BackpressureBlocksDispatchAtQueueDepth) {
  // One worker, depth 2, nobody draining: the first two dispatches fill the
  // ring, the third parks until the worker's next take wakes it.
  obs::Registry registry;
  obs::Counter* waits = registry.GetCounter("waits");
  RssDispatcher rss(1, /*queue_depth=*/2, nullptr, waits);
  FlowSampler sampler(8, 0.0, 5);
  FlowFeeder feeder(&sampler);
  rss.Dispatch(feeder.Next(4));
  rss.Dispatch(feeder.Next(4));
  ASSERT_EQ(rss.QueueDepth(0), 2u);

  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    rss.Dispatch(feeder.Next(4));
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load()) << "dispatch must block on a full ring";
  EXPECT_GE(waits->Value(), 1u) << "a producer past its poll parks, counted";

  FlowBatch batch;
  ASSERT_TRUE(rss.Await(0));
  rss.Take(0, batch);  // free one slot
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(rss.QueueDepth(0), 2u);
  rss.Shutdown();
  EXPECT_EQ(DrainClosed(rss, 0), 8u);
}

TEST(Rss, ShutdownWakesAndRefusesAParkedProducer) {
  obs::Registry registry;
  obs::Counter* waits = registry.GetCounter("waits");
  RssDispatcher rss(1, /*queue_depth=*/2, nullptr, waits);
  FlowSampler sampler(8, 0.0, 8);
  FlowFeeder feeder(&sampler);
  rss.Dispatch(feeder.Next(3));
  rss.Dispatch(feeder.Next(3));
  std::size_t sent = 99;
  std::thread producer([&] { sent = rss.Dispatch(feeder.Next(5)); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (waits->Value() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(waits->Value(), 1u) << "producer never parked on the full ring";
  rss.Shutdown();
  producer.join();
  EXPECT_EQ(sent, 0u) << "a producer parked across Shutdown is refused";
  EXPECT_EQ(rss.refused_sub_batches(), 1u);
  EXPECT_EQ(rss.dropped_items(), 5u) << "the refused items are counted";
  EXPECT_EQ(DrainClosed(rss, 0), 6u) << "what was published still drains";
}

TEST(Rss, ShutdownWakesParkedWorkers) {
  constexpr std::size_t kWorkers = 3;
  obs::Registry registry;
  obs::Counter* parks = registry.GetCounter("parks", kWorkers);
  RssDispatcher rss(kWorkers, /*queue_depth=*/4, parks);
  std::atomic<std::size_t> exited{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&rss, &exited, w] {
      // Nothing is ever dispatched: every worker parks inside Await().
      while (rss.Await(w)) {
      }
      ++exited;
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parks->Value() < kWorkers && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(exited.load(), 0u) << "workers should be parked in Await";
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_GE(parks->ShardValue(w), 1u) << "idle worker " << w << " never parked";
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(exited.load(), kWorkers) << "close must wake and release all";
}

// Thousands of laps of small rings, per-flow order checked on every item,
// with workers that stall now and then so producers keep hitting full rings.
TEST(Rss, ManyLapsKeepPerFlowOrderThroughFullRingStalls) {
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kDepth = 4;
  constexpr int kBatches = 10000;
  constexpr std::size_t kBatchSize = 16;
  obs::Registry registry;
  obs::Counter* waits = registry.GetCounter("waits");
  RssDispatcher rss(kWorkers, kDepth, nullptr, waits);

  std::atomic<std::size_t> received{0};
  std::atomic<bool> out_of_order{false};
  std::atomic<bool> misrouted{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::map<std::uint32_t, std::uint64_t> next_seq;  // per-flow cursor
      FlowBatch batch;
      std::uint64_t takes = 0;
      while (rss.Await(w)) {
        rss.Take(w, batch);
        for (const FlowWork& fw : batch) {
          misrouted = misrouted || rss.WorkerForTuple(fw.tuple) != w;
          auto [it, fresh] = next_seq.try_emplace(fw.tuple.src_ip, 0);
          if (fw.seq != it->second) {
            out_of_order = true;
          }
          it->second = fw.seq + 1;
        }
        received += batch.size();
        if (++takes % 97 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      }
    });
  }
  FlowSampler sampler(48, 0.0, 11);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rss.Dispatch(feeder.Next(kBatchSize));
  }
  rss.Shutdown();
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_FALSE(out_of_order.load()) << "a flow's items arrived out of order";
  EXPECT_FALSE(misrouted.load());
  EXPECT_EQ(received.load(), kBatches * kBatchSize);
  EXPECT_GE(rss.sub_batches_steered() / (kWorkers * kDepth), 2000u)
      << "each ring must have gone round thousands of times";
  EXPECT_GE(waits->Value(), 1u) << "stalled workers must have filled a ring";
}

// Shutdown racing live producers strands nothing: every dispatched item is
// either delivered by the workers' final drain or counted dropped. (With
// Close setting the flag outside the producer lock, a publish filling its
// slot across the Close lands after the worker's final drain; this loop
// catches that within the first ten rounds.)
TEST(Rss, DispatchRacingShutdownDeliversOrCountsEveryItem) {
  constexpr std::size_t kWorkers = 2;
  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds; ++round) {
    RssDispatcher rss(kWorkers, /*queue_depth=*/8);
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        FlowBatch batch;
        while (rss.Await(w)) {
          rss.Take(w, batch);
          delivered += batch.size();
        }
      });
    }
    // One producer, so the workers keep a core each and poll closely, and
    // large bursts, so a publish spends longer filling its slot.
    threads.emplace_back([&] {
      FlowSampler sampler(32, 0.0, static_cast<std::uint64_t>(round));
      FlowFeeder feeder(&sampler);
      while (!stop.load(std::memory_order_relaxed)) {
        FlowBatch batch = feeder.Next(128);
        dispatched += batch.size();
        rss.Dispatch(std::move(batch));
      }
    });
    // Close while the producer is mid-stream.
    while (delivered.load() < 512) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::microseconds((round % 5) * 10));
    rss.Shutdown();
    stop = true;
    for (auto& t : threads) {
      t.join();
    }
    ASSERT_EQ(dispatched.load(), delivered.load() + rss.dropped_items())
        << "round " << round << ": an item was stranded by Shutdown";
  }
}

TEST(Rss, DispatchAfterShutdownCountsRefusalsAndDroppedItems) {
  RssDispatcher rss(2, /*queue_depth=*/4);
  FlowSampler sampler(16, 0.0, 9);
  FlowFeeder feeder(&sampler);
  EXPECT_GE(rss.Dispatch(feeder.Next(32)), 1u);
  EXPECT_EQ(rss.refused_sub_batches(), 0u);
  EXPECT_EQ(rss.dropped_items(), 0u);

  rss.Shutdown();
  EXPECT_EQ(rss.Dispatch(feeder.Next(32)), 0u)
      << "closed rings refuse every sub-batch";
  EXPECT_GE(rss.refused_sub_batches(), 1u);
  EXPECT_LE(rss.refused_sub_batches(), 2u);
  EXPECT_EQ(rss.dropped_items(), 32u)
      << "every dropped item must be accounted";
  EXPECT_EQ(DrainClosed(rss, 0) + DrainClosed(rss, 1), 32u);
}

// After the first laps have sized every slot, steering allocates nothing:
// no per-call vectors, no per-sub-batch box, no channel node.
TEST(Rss, DispatchAllocatesNothingAfterTheFirstLap) {
  constexpr std::size_t kDepth = 8;
  constexpr int kWarm = 4 * static_cast<int>(kDepth);
  constexpr int kMeasured = 2000;
  RssDispatcher rss(2, kDepth);
  std::thread worker_threads[2];
  for (std::size_t w = 0; w < 2; ++w) {
    worker_threads[w] = std::thread([&rss, w] {
      FlowBatch batch;
      while (rss.Await(w)) {
        rss.Take(w, batch);
      }
    });
  }
  // Inputs are built up front: FlowFeeder::Next allocates, Dispatch must not.
  FlowSampler sampler(64, 0.0, 13);
  FlowFeeder feeder(&sampler);
  std::vector<FlowBatch> inputs;
  inputs.reserve(kWarm + kMeasured);
  for (int i = 0; i < kWarm + kMeasured; ++i) {
    inputs.push_back(feeder.Next(32));
  }
  std::uint64_t warm_allocs = 0;
  for (int i = 0; i < kWarm + kMeasured; ++i) {
    if (i == kWarm) {
      warm_allocs = g_allocs.load();
    }
    g_count_allocs = true;
    rss.Dispatch(std::move(inputs[static_cast<std::size_t>(i)]));
    g_count_allocs = false;
  }
  const std::uint64_t measured_allocs = g_allocs.load() - warm_allocs;
  rss.Shutdown();
  for (auto& t : worker_threads) {
    t.join();
  }
  EXPECT_GT(warm_allocs, 0u) << "the counter must see the first lap's growth";
  EXPECT_EQ(measured_allocs, 0u)
      << "steady-state Dispatch allocated " << measured_allocs << " times in "
      << kMeasured << " calls";
}

// The same holds for the runtime's whole dispatch path, stamps included.
TEST(Rss, RuntimeDispatchAllocatesNothingAfterTheFirstLap) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 8;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  FlowSampler sampler(64, 0.0, 14);
  FlowFeeder feeder(&sampler);
  std::vector<FlowBatch> inputs;
  for (int i = 0; i < 1032; ++i) {
    inputs.push_back(feeder.Next(32));
  }
  std::uint64_t warm_allocs = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i == 32) {
      warm_allocs = g_allocs.load();
    }
    g_count_allocs = true;
    EXPECT_TRUE(rt.Dispatch(std::move(inputs[i])));
    g_count_allocs = false;
  }
  const std::uint64_t measured_allocs = g_allocs.load() - warm_allocs;
  rt.Shutdown();
  EXPECT_EQ(rt.Stats().totals.packets, inputs.size() * 32);
  EXPECT_EQ(measured_allocs, 0u);
}

// Waits (up to 10 s) until every one of `items` dispatched items is
// processed or counted dropped.
bool DrainTo(const Runtime& rt, std::uint64_t items) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const RuntimeStats s = rt.Stats();
    if (s.totals.packets + s.totals.drops + s.steer_dropped_items >= items) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Two workers, one null stage.
Runtime NullRuntime() {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  return Runtime(cfg, spec);
}

// A failed allocation inside Dispatch — here a fresh producer thread's
// first call, which sizes its steering buffers — refuses that batch and
// counts a dispatch fault, as an injected channel.send panic is. The
// runtime keeps accepting.
TEST(Rss, RuntimeDispatchContainsBadAlloc) {
  Runtime rt = NullRuntime();
  rt.Start();
  FlowSampler sampler(64, 0.0, 15);
  FlowFeeder feeder(&sampler);
  std::vector<FlowBatch> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(feeder.Next(32));
  }
  bool first_accepted = true;
  std::uint64_t accepted = 0;
  std::thread producer([&] {
    util::FaultInjector::SetThreadTag("test.producer");
    g_bad_alloc_tag.store("test.producer");
    first_accepted = rt.Dispatch(std::move(inputs[0]));
    for (std::size_t i = 1; i < inputs.size(); ++i) {
      accepted += rt.Dispatch(std::move(inputs[i])) ? 32 : 0;
    }
  });
  producer.join();
  EXPECT_TRUE(DrainTo(rt, accepted));
  rt.Shutdown();

  EXPECT_EQ(g_bad_alloc_tag.load(), nullptr) << "no allocation failed";
  EXPECT_FALSE(first_accepted);
  EXPECT_EQ(accepted, 7u * 32);
  EXPECT_EQ(
      rt.registry().GetCounter("runtime.dispatch_faults_total")->Value(), 1u);
  const RuntimeStats s = rt.Stats();
  EXPECT_EQ(s.totals.packets + s.totals.drops + s.steer_dropped_items,
            accepted)
      << s.Summary();
}

// A failed allocation on a worker thread — here worker 0's first after
// arming, the frame batch it materializes a sub-batch into — drops that
// sub-batch and counts one fault. The worker keeps serving.
TEST(Rss, RuntimeWorkerContainsBadAlloc) {
  Runtime rt = NullRuntime();
  rt.Start();
  // Armed once worker 0 is parked, past its start-up allocations.
  obs::Counter* parks = rt.registry().GetCounter("runtime.worker_parks_total");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parks->ShardValue(0) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g_bad_alloc_tag.store("net.worker:0");
  FlowSampler sampler(64, 0.0, 16);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(rt.Dispatch(feeder.Next(32)));
    dispatched += 32;
  }
  EXPECT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();
  const bool fired = g_bad_alloc_tag.load() == nullptr;
  g_bad_alloc_tag.store(nullptr);

  EXPECT_TRUE(fired) << "worker 0 never allocated";
  const RuntimeStats s = rt.Stats();
  EXPECT_EQ(s.workers[0].faults, 1u);
  EXPECT_GT(s.workers[0].drops, 0u);
  EXPECT_GT(s.workers[0].packets, 0u) << "worker 0 stopped serving";
  EXPECT_EQ(s.totals.packets + s.totals.drops + s.steer_dropped_items,
            dispatched)
      << s.Summary();
}

TEST(Rss, ZeroWorkersRejected) {
  EXPECT_THROW(RssDispatcher rss(0, 4), util::PanicError);
}

TEST(Rss, ZeroQueueDepthRejected) {
  EXPECT_THROW(RssDispatcher rss(2, 0), util::PanicError)
      << "a ring needs a bound";
}

TEST(Rss, OutOfRangeWorkerPanics) {
  RssDispatcher rss(2, 4);
  EXPECT_THROW((void)rss.QueueDepth(5), util::PanicError);
  EXPECT_THROW((void)rss.Await(2), util::PanicError);
}

}  // namespace
}  // namespace net
