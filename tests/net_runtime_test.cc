// net::Runtime: sharded pipeline replicas, per-flow ordering across the
// descriptor handoff, fault containment per shard, and supervisor-driven
// recovery.
#include "src/net/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/obs/trace.h"
#include "src/util/fault_injector.h"

namespace net {
namespace {

// Verifies, inside the pipeline, that (a) every packet of a flow arrives at
// the same worker replica and (b) per-flow sequence numbers are strictly
// increasing — the ordering guarantee RSS + FIFO channels must provide.
class OrderingCheck : public Operator {
 public:
  struct Shared {
    std::mutex mu;
    std::map<std::uint64_t, std::size_t> flow_owner;  // flow -> worker
    std::atomic<bool> affinity_violation{false};
    std::atomic<bool> ordering_violation{false};
  };

  OrderingCheck(std::size_t worker, Shared* shared)
      : worker_(worker), shared_(shared) {}

  PacketBatch Process(PacketBatch batch) override {
    for (PacketBuf& pkt : batch) {
      const std::uint64_t key = pkt.Tuple().Hash();
      const std::uint64_t seq = ReadFlowSeq(pkt);
      auto [it, inserted] = last_seq_.try_emplace(key, seq);
      if (!inserted) {
        if (seq <= it->second) {
          shared_->ordering_violation = true;
        }
        it->second = seq;
      }
      std::lock_guard<std::mutex> lock(shared_->mu);
      auto [oit, owned] = shared_->flow_owner.try_emplace(key, worker_);
      if (!owned && oit->second != worker_) {
        shared_->affinity_violation = true;
      }
    }
    return batch;
  }

  std::string_view name() const override { return "ordering-check"; }

 private:
  std::size_t worker_;
  Shared* shared_;
  std::map<std::uint64_t, std::uint64_t> last_seq_;  // per-replica state
};

TEST(Runtime, ProcessesEverythingAcrossShards) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatchSize = 32;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(128, 0.0, 42);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_EQ(stats.totals.drops, 0u);
  EXPECT_EQ(stats.totals.faults, 0u);
  EXPECT_EQ(stats.dispatch_calls, static_cast<std::uint64_t>(kBatches));
  EXPECT_GE(stats.sub_batches, stats.dispatch_calls)
      << "fan-out produces at least one sub-batch per dispatched batch";
  EXPECT_EQ(stats.workers.size(), kWorkers);
  // 128 flows over 4 shards: every shard should see traffic.
  for (const WorkerTelemetry& w : stats.workers) {
    EXPECT_GT(w.packets, 0u) << "idle shard despite 128 flows";
  }
  EXPECT_FALSE(stats.Summary().empty());
}

TEST(Runtime, PerFlowOrderingAndAffinityHoldAcrossShards) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 300;
  constexpr std::size_t kBatchSize = 16;

  OrderingCheck::Shared shared;
  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 8;
  std::vector<StageSpec> spec;
  spec.push_back({"ordering", [&shared](std::size_t worker) {
                    return std::make_unique<OrderingCheck>(worker, &shared);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 7);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  EXPECT_FALSE(shared.affinity_violation.load())
      << "a flow was processed by two different shards";
  EXPECT_FALSE(shared.ordering_violation.load())
      << "per-flow sequence numbers arrived out of order";
  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_EQ(stats.totals.drops, 0u);
}

TEST(Runtime, FaultOnOneShardIsRecoveredWithoutStallingOthers) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 400;
  constexpr std::size_t kBatchSize = 16;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  // Shard 0's replica panics every 3rd batch; all other replicas are clean.
  spec.push_back({"flaky-null", [](std::size_t worker) {
                    return std::make_unique<NullFilter>(
                        worker == 0 ? 3 : 0);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(256, 0.0, 11);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  ASSERT_EQ(stats.workers.size(), kWorkers);
  const WorkerTelemetry& faulty = stats.workers[0];
  EXPECT_GE(faulty.faults, 1u) << "injected panic never fired";
  EXPECT_GE(faulty.recoveries, 1u)
      << "supervisor never recovered the faulted stage";
  EXPECT_GT(faulty.packets, 0u)
      << "the faulted shard must keep processing after recovery";
  for (std::size_t w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(stats.workers[w].faults, 0u) << "fault leaked to shard " << w;
    EXPECT_EQ(stats.workers[w].drops, 0u) << "healthy shard dropped traffic";
    EXPECT_GT(stats.workers[w].packets, 0u)
        << "healthy shard " << w << " stalled";
  }
  EXPECT_GE(stats.totals.recoveries, 1u)
      << "recovery count must surface in RuntimeStats";
  // Conservation: every materialized packet either left the pipeline or was
  // accounted as a drop when its batch died with the faulting stage.
  EXPECT_EQ(stats.totals.packets + stats.totals.drops,
            kBatches * kBatchSize);
}

// Every stage runs in a protection domain: a config asking for an
// unisolated runtime is refused, not silently run isolated.
TEST(Runtime, UnisolatedConfigIsRefused) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.isolated = false;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  EXPECT_THROW({ Runtime rt(cfg, spec); }, util::PanicError);
}

TEST(Runtime, FlowPinningIsStable) {
  RuntimeConfig cfg;
  cfg.workers = 8;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);

  FlowSampler sampler(64, 0.0, 9);
  for (std::size_t i = 0; i < sampler.flow_count(); ++i) {
    const FiveTuple& t = sampler.FlowAt(i);
    EXPECT_EQ(rt.WorkerFor(t), rt.WorkerFor(t));
    EXPECT_LT(rt.WorkerFor(t), cfg.workers);
  }
  // Never started: construction + destruction alone must be clean.
}

TEST(Runtime, DispatchOutsideStartShutdownWindowIsRefused) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);

  FlowSampler sampler(16, 0.0, 5);
  FlowFeeder feeder(&sampler);

  // Before Start: refused, counted, nothing processed.
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));

  rt.Start();
  EXPECT_TRUE(rt.Dispatch(feeder.Next(8)));
  rt.Shutdown();

  // After Shutdown: refused again, not a crash or a hang.
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)));

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, 8u);
  EXPECT_EQ(stats.rejected_dispatches, 3u);
  EXPECT_EQ(stats.dispatch_calls, 1u);
}

TEST(Runtime, StartAfterShutdownIsANoOp) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  rt.Shutdown();
  rt.Start();  // terminal shutdown: must not respawn threads

  FlowSampler sampler(8, 0.0, 2);
  FlowFeeder feeder(&sampler);
  EXPECT_FALSE(rt.Dispatch(feeder.Next(4)));
  EXPECT_EQ(rt.Stats().totals.packets, 0u);
}

TEST(Runtime, ConcurrentStartAndShutdownAreSerialized) {
  for (int round = 0; round < 10; ++round) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    std::vector<StageSpec> spec;
    spec.push_back(
        {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
    Runtime rt(cfg, spec);

    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&rt] { rt.Start(); });
      threads.emplace_back([&rt] { rt.Shutdown(); });
    }
    for (auto& t : threads) {
      t.join();
    }
    rt.Shutdown();  // whatever interleaving happened, this must be clean
    EXPECT_EQ(rt.Stats().totals.faults, 0u);
  }
}

// Regression for the stats-aggregation race: Stats() and registry scrapes
// taken *while workers are processing* must be consistent snapshots —
// counters monotone across reads, histogram bucket sums equal to their
// counts — and the final post-shutdown totals must conserve packets.
TEST(Runtime, ScrapeUnderLoadIsConsistent) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBatches = 400;
  constexpr std::size_t kBatchSize = 16;

  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  std::thread feeder_thread([&rt] {
    FlowSampler sampler(128, 0.0, 21);
    FlowFeeder feeder(&sampler);
    for (int i = 0; i < kBatches; ++i) {
      rt.Dispatch(feeder.Next(kBatchSize));
    }
  });

  std::uint64_t last_packets = 0;
  std::uint64_t last_batches = 0;
  std::uint64_t last_hist_count = 0;
  for (int scrape = 0; scrape < 100; ++scrape) {
    const RuntimeStats stats = rt.Stats();
    ASSERT_GE(stats.totals.packets, last_packets)
        << "packet counter went backwards at scrape " << scrape;
    ASSERT_GE(stats.totals.batches, last_batches)
        << "batch counter went backwards at scrape " << scrape;
    last_packets = stats.totals.packets;
    last_batches = stats.totals.batches;

    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : stats.batch_cycles.buckets) {
      bucket_total += b;
    }
    ASSERT_EQ(bucket_total, stats.batch_cycles.count)
        << "torn batch_cycles histogram at scrape " << scrape;
    ASSERT_GE(stats.batch_cycles.count, last_hist_count)
        << "histogram count went backwards at scrape " << scrape;
    last_hist_count = stats.batch_cycles.count;

    // The exporters must stay usable mid-run too.
    if (scrape % 25 == 0) {
      EXPECT_NE(rt.ScrapePrometheus().find("runtime_packets_total"),
                std::string::npos);
      EXPECT_NE(rt.ScrapeJson().find("runtime.batch_cycles"),
                std::string::npos);
    }
  }

  feeder_thread.join();
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  EXPECT_GE(stats.totals.packets, last_packets);
  EXPECT_EQ(stats.batch_cycles.count, stats.totals.batches)
      << "every executed sub-batch records exactly one batch_cycles sample";
  EXPECT_GT(stats.mempool_in_use_hwm, 0u);
  EXPECT_EQ(stats.mempool_in_use, 0u)
      << "all packets freed after shutdown";
  EXPECT_EQ(stats.mempool_alloc_failures, 0u);
}

TEST(Runtime, ShutdownIsIdempotent) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  rt.Shutdown();
  rt.Shutdown();  // second call is a no-op
  EXPECT_EQ(rt.Stats().totals.faults, 0u);
}

// Flow correlation end to end: with the tracer armed, a faulting run must
// produce async "flow" tracks whose events cover dispatch (driver thread),
// worker batch execution, and recovery (supervisor thread) — and the
// exported JSON must keep the 'b'/'e' pairing balanced.
TEST(Runtime, FlowCorrelatedTraceSpansDispatchWorkersAndRecovery) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disarm();
  tracer.Reset();
  tracer.Arm(1 << 15);
  tracer.SetThreadName("flow-test-driver");

  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.queue_depth = 16;
  std::vector<StageSpec> spec;
  spec.push_back({"flaky-null", [](std::size_t worker) {
                    return std::make_unique<NullFilter>(
                        worker == 0 ? 3 : 0);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();
  FlowSampler sampler(64, 0.0, 13);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < 200; ++i) {
    rt.Dispatch(feeder.Next(16));
  }
  // Shutdown stops the supervisor before it handles a fault still pending,
  // so wait for the recovery this test traces.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.Stats().totals.recoveries < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();
  EXPECT_GE(rt.Stats().totals.recoveries, 1u);

  const std::string json = tracer.ExportChromeJson();
  tracer.Disarm();
  tracer.Reset();
  auto count_of = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count_of("\"name\":\"flow.dispatch\""), 0u);
  EXPECT_GT(count_of("\"name\":\"flow.batch\""), 0u);
  EXPECT_GT(count_of("\"name\":\"flow.recover\""), 0u);
  EXPECT_GT(count_of("\"cat\":\"flow\""), 0u);
  EXPECT_EQ(count_of("\"ph\":\"b\""), count_of("\"ph\":\"e\""))
      << "async begin/end pairing broke (see tools/trace_lint)";
}

// Wake counters: a worker with nothing to do parks on its empty ring
// (counted per worker), and a producer that outruns a slow stage parks on a
// full ring. Both show in Stats, the Summary line and /metrics. The slow
// stage sleeps rather than spins: a spinning worker that shares the
// producer's core lets the producer's yield return only once a slot is
// free, so the producer would never reach its park.
TEST(Runtime, IdleWorkersParkAndFullRingsCountDispatchWaits) {
  constexpr std::size_t kWorkers = 2;
  constexpr int kBatches = 30;
  constexpr std::size_t kBatchSize = 16;
  RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 2;
  std::vector<StageSpec> spec;
  spec.push_back({"sleep", [](std::size_t) {
                    class Sleep : public Operator {
                     public:
                      PacketBatch Process(PacketBatch batch) override {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(300));
                        return batch;
                      }
                      std::string_view name() const override { return "sleep"; }
                    };
                    return std::make_unique<Sleep>();
                  }});
  Runtime rt(cfg, spec);
  rt.Start();
  obs::Counter* parks = rt.registry().GetCounter("runtime.worker_parks_total");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((parks->ShardValue(0) == 0 || parks->ShardValue(1) == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FlowSampler sampler(64, 0.0, 31);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(rt.Dispatch(feeder.Next(kBatchSize)));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets, kBatches * kBatchSize);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_GE(stats.workers[w].parks, 1u) << "idle worker " << w << " never parked";
  }
  EXPECT_EQ(stats.worker_parks, stats.totals.parks);
  EXPECT_GE(stats.dispatch_waits, 1u)
      << "a producer against 300 us batches and 2-slot rings must park";
  const std::string summary = stats.Summary();
  EXPECT_NE(summary.find("worker_parks="), std::string::npos);
  EXPECT_NE(summary.find("dispatch_waits="), std::string::npos);
  const std::string prom = rt.ScrapePrometheus();
  EXPECT_NE(prom.find("linsys_runtime_worker_parks_total"), std::string::npos);
  EXPECT_NE(prom.find("linsys_runtime_dispatch_waits_total"), std::string::npos);
}

// An injected channel.send fault surfaces as a failed Dispatch on the
// driver thread — counted, contained, and the runtime keeps accepting.
TEST(Runtime, ChannelSendFaultIsContainedAtDispatch) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();
  FlowSampler sampler(64, 0.0, 17);
  FlowFeeder feeder(&sampler);
  ASSERT_TRUE(rt.Dispatch(feeder.Next(8)));

  util::FaultInjector::Global().ArmOneShot("channel.send",
                                           util::PanicKind::kExplicit);
  EXPECT_FALSE(rt.Dispatch(feeder.Next(8)))
      << "faulted dispatch must report failure, not throw";
  EXPECT_EQ(
      rt.registry().GetCounter("runtime.dispatch_faults_total")->Value(), 1u);

  EXPECT_TRUE(rt.Dispatch(feeder.Next(8)));  // one-shot consumed, flow resumes
  rt.Shutdown();
  util::FaultInjector::Global().Reset();
  const RuntimeStats stats = rt.Stats();
  EXPECT_GT(stats.totals.packets, 0u);
  EXPECT_EQ(stats.totals.faults, 0u) << "fault never reached a worker";
}

}  // namespace
}  // namespace net
