// Supervision under injected fault storms: a faulted stage is recovered on
// the worker that saw the fault, before its next batch; recovery-fn panics
// are contained, crash-looping stages are quarantined, each DegradePolicy
// does what it says, MTTR is measured, a worker stuck in one sub-batch shows
// while it lasts and counts one stall, and out-of-domain panics (mempool) do
// not kill worker threads.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/util/fault_injector.h"

namespace net {
namespace {

using util::FaultInjector;

// The injector registry is process-global; keep every test hermetic.
class SupervisionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::vector<StageSpec> AlwaysFaultingStage(DegradePolicy degrade) {
  std::vector<StageSpec> spec;
  // fault_every_n == 1: the operator panics on every batch, so without
  // quarantine the stage crash-loops forever.
  spec.push_back({"crashy",
                  [](std::size_t) { return std::make_unique<NullFilter>(1); },
                  degrade});
  return spec;
}

// Dispatches batches until the predicate holds or ~2s elapse; returns
// whether the predicate held. Keeps the worker busy so post-recovery and
// post-quarantine behaviour is actually exercised.
template <typename Pred>
bool DispatchUntil(Runtime& rt, FlowFeeder& feeder, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    rt.Dispatch(feeder.Next(8));
    if (pred(rt.Stats())) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred(rt.Stats());
}

// Throws `raise`'s exception on every third batch — an operator bug that
// is not a util::PanicError.
class ThrowsEveryThirdBatch : public Operator {
 public:
  explicit ThrowsEveryThirdBatch(void (*raise)()) : raise_(raise) {}

  PacketBatch Process(PacketBatch batch) override {
    if (++batches_ % 3 == 0) {
      raise_();
    }
    return batch;
  }

  std::string_view name() const override { return "thrower"; }

 private:
  void (*raise_)();
  std::uint64_t batches_ = 0;
};

// A std::runtime_error or std::bad_alloc from a stage is contained like a
// panic: the batch is dropped, the fault counted, the domain recovered, and
// both workers keep serving.
TEST_F(SupervisionTest, NonPanicExceptionsAreContainedAndRecovered) {
  struct Case {
    const char* what;
    void (*raise)();
  };
  for (const Case& c :
       {Case{"runtime_error", [] { throw std::runtime_error("operator bug"); }},
        Case{"bad_alloc", [] { throw std::bad_alloc(); }}}) {
    SCOPED_TRACE(c.what);
    RuntimeConfig cfg;
    cfg.workers = 2;
    std::vector<StageSpec> spec;
    spec.push_back({"thrower", [raise = c.raise](std::size_t) {
                      return std::make_unique<ThrowsEveryThirdBatch>(raise);
                    }});
    Runtime rt(cfg, spec);
    rt.Start();

    constexpr int kBatches = 50;
    constexpr std::size_t kBatchSize = 8;
    FlowSampler sampler(32, 0.0, 17);
    FlowFeeder feeder(&sampler);
    for (int i = 0; i < kBatches; ++i) {
      rt.Dispatch(feeder.Next(kBatchSize));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    rt.Shutdown();

    const RuntimeStats stats = rt.Stats();
    EXPECT_EQ(stats.totals.packets + stats.totals.drops, kBatches * kBatchSize);
    EXPECT_GE(stats.totals.faults, 2u);
    EXPECT_GE(stats.totals.recoveries, 2u);
    EXPECT_EQ(stats.totals.recoveries, stats.totals.faults)
        << "a fault left unrecovered at Shutdown";
  }
}

// The ISSUE's headline regression: a stage whose operator always panics AND
// whose recovery function always panics. Previously the recovery panic
// escaped the supervisor thread -> std::terminate. Now: each recovery panic
// is contained and counted, the stage burns its retry budget, gets
// quarantined, and (kPassthrough) traffic keeps flowing past the corpse.
TEST_F(SupervisionTest, RecoveryPanicLoopIsContainedAndQuarantined) {
  FaultInjector::Global().Seed(7);
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg, AlwaysFaultingStage(DegradePolicy::kPassthrough));
  rt.Start();

  FlowSampler sampler(32, 0.0, 13);
  FlowFeeder feeder(&sampler);
  const bool quarantined = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return !s.stages.empty() && s.stages[0].quarantined_replicas == 1;
  });
  ASSERT_TRUE(quarantined) << "crash-looping stage was never quarantined";

  // Passthrough: with the stage quarantined, batches bypass it and come out
  // as processed packets again.
  const bool flowing = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return s.totals.packets > 0;
  });
  rt.Shutdown();
  EXPECT_TRUE(flowing) << "kPassthrough must let traffic bypass the stage";

  const RuntimeStats stats = rt.Stats();
  ASSERT_EQ(stats.stages.size(), 1u);
  const StageTelemetry& stage = stats.stages[0];
  EXPECT_EQ(stage.policy, DegradePolicy::kPassthrough);
  EXPECT_EQ(stage.quarantined_replicas, 1u);
  // The retry budget was spent on recoveries whose fn panicked.
  EXPECT_GE(stage.recovery_panics, Runtime::kMaxRecoveryAttempts);
  EXPECT_EQ(stage.recoveries, 0u) << "every recovery attempt was sabotaged";
  EXPECT_GT(stage.passthrough_batches, 0u);
  EXPECT_GE(stats.totals.recovery_panics, Runtime::kMaxRecoveryAttempts);
  EXPECT_EQ(stats.totals.quarantined, 1u);
  // Reaching this line at all is the real assertion: no std::terminate.
}

TEST_F(SupervisionTest, QuarantineDropPolicyCountsAndConserves) {
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg, AlwaysFaultingStage(DegradePolicy::kDrop));
  rt.Start();

  FlowSampler sampler(32, 0.0, 17);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool saw_quarantine_drops = false;
  while (std::chrono::steady_clock::now() < deadline) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
    const RuntimeStats s = rt.Stats();
    if (!s.stages.empty() && s.stages[0].quarantine_drop_pkts > 0) {
      saw_quarantine_drops = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();
  ASSERT_TRUE(saw_quarantine_drops)
      << "kDrop quarantine never attributed a dropped batch";

  const RuntimeStats stats = rt.Stats();
  ASSERT_EQ(stats.stages.size(), 1u);
  EXPECT_EQ(stats.stages[0].quarantined_replicas, 1u);
  // No packet ever survives this pipeline (faults before quarantine, drops
  // after), and none may vanish unaccounted.
  EXPECT_EQ(stats.totals.packets, 0u);
  EXPECT_EQ(stats.totals.drops, dispatched)
      << "every dispatched packet must be accounted as a drop";
}

// Transient faults (operator panics every 5th batch, recovery fn healthy):
// the worker recovers, the stage is never quarantined, and each
// fault->first-good-batch incident leaves an MTTR sample.
TEST_F(SupervisionTest, TransientFaultsRecordMttrWithoutQuarantine) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back({"flaky",
                  [](std::size_t) { return std::make_unique<NullFilter>(5); },
                  DegradePolicy::kDrop});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 23);
  FlowFeeder feeder(&sampler);
  const bool measured = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return !s.stages.empty() && s.stages[0].mttr_cycles.size() >= 3;
  });
  rt.Shutdown();
  ASSERT_TRUE(measured) << "no MTTR samples after repeated transient faults";

  const RuntimeStats stats = rt.Stats();
  const StageTelemetry& stage = stats.stages[0];
  EXPECT_GE(stage.faults, 3u);
  EXPECT_GE(stage.recoveries, 1u);
  EXPECT_EQ(stage.quarantined_replicas, 0u)
      << "a stage that recovers must not be quarantined";
  EXPECT_GT(stage.mttr_cycles.Mean(), 0.0);
  EXPECT_GT(stats.totals.packets, 0u);
}

// Holds a stage until the test opens it: a condition variable, so a held
// stage burns no CPU and the test passes pinned to one core.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// An operator that holds its first batch on a gate, then passes every batch.
class GatedOperator : public Operator {
 public:
  explicit GatedOperator(Gate* gate) : gate_(gate) {}

  PacketBatch Process(PacketBatch batch) override {
    if (!held_) {
      held_ = true;
      gate_->Wait();
    }
    return batch;
  }
  std::string_view name() const override { return "gated"; }

 private:
  Gate* gate_;
  bool held_ = false;
};

// A gauge's level from a registry scrape, which takes no worker's lock
// (Stats() would wait behind a held stage); -1 when it is not registered.
std::int64_t GaugeValue(Runtime& rt, const std::string& name) {
  for (const auto& g : rt.registry().Scrape().gauges) {
    if (g.name == name) {
      return g.value;
    }
  }
  return -1;
}

// A worker held on one sub-batch past Runtime::kStallCycles shows in the
// runtime.stalled_workers gauge while it lasts, and counts one stall when
// the sub-batch ends — not again on the batches that follow.
TEST_F(SupervisionTest, StuckWorkerShowsWhileStuckAndCountsOneStall) {
  Gate gate;
  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back({"gated", [&gate](std::size_t) {
                    return std::make_unique<GatedOperator>(&gate);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(16, 0.0, 29);
  FlowFeeder feeder(&sampler);
  rt.Dispatch(feeder.Next(8));  // the batch the worker is held on
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::int64_t stalled = GaugeValue(rt, "runtime.stalled_workers");
  while (stalled != 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stalled = GaugeValue(rt, "runtime.stalled_workers");
  }
  gate.Open();
  EXPECT_EQ(stalled, 1) << "the held worker never showed as stalled";

  // The held sub-batch ends: one stall, counted by the worker itself.
  const bool counted = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return s.totals.stalls >= 1;
  });
  EXPECT_TRUE(counted) << "the held sub-batch never counted its stall";
  const std::uint64_t batches = rt.Stats().totals.batches;
  for (int i = 0; i < 20; ++i) {
    rt.Dispatch(feeder.Next(8));
  }
  const bool drained = DispatchUntil(rt, feeder, [&](const RuntimeStats& s) {
    return s.totals.batches >= batches + 20;
  });
  EXPECT_TRUE(drained);
  EXPECT_EQ(rt.Stats().totals.stalls, 1u);
  EXPECT_EQ(GaugeValue(rt, "runtime.stalled_workers"), 0);
  rt.Shutdown();
  EXPECT_GT(rt.Stats().totals.packets, 0u)
      << "worker must finish the batch after its hold";
}

// Faults injected *outside* any domain — in the worker's own materialization
// path (Mempool::Alloc) — must be contained by the worker itself: the
// sub-batch is dropped and accounted, the thread survives, and processing
// resumes once the plan is disarmed.
TEST_F(SupervisionTest, MempoolInjectionIsContainedByWorker) {
  FaultInjector::Global().ArmEveryNth("mempool.alloc", 40);

  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(32, 0.0, 31);
  FlowFeeder feeder(&sampler);
  constexpr std::uint64_t kStormPackets = 50 * 8;
  for (int i = 0; i < 50; ++i) {
    rt.Dispatch(feeder.Next(8));
  }
  // Quiesce the storm phase, then disarm and prove the worker still works.
  const bool drained = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return s.totals.drops > 0;
  });
  ASSERT_TRUE(drained) << "injected alloc panic never dropped a sub-batch";

  FaultInjector::Global().Reset();
  const RuntimeStats mid = rt.Stats();
  const bool resumed = DispatchUntil(rt, feeder, [&mid](const RuntimeStats& s) {
    return s.totals.packets > mid.totals.packets;
  });
  rt.Shutdown();
  EXPECT_TRUE(resumed) << "worker thread died on an out-of-domain panic";

  const RuntimeStats stats = rt.Stats();
  EXPECT_GT(stats.totals.drops, 0u);
  EXPECT_GE(stats.totals.packets + stats.totals.drops, kStormPackets)
      << "packets vanished unaccounted during the alloc-fault storm";
}

// Operator-site injection driven through the public injector API end to end:
// probability plan on the null-filter site, seeded, across a multi-worker
// runtime. The runtime must absorb every injected panic as an ordinary
// fault + recovery and conserve packets.
TEST_F(SupervisionTest, SeededOperatorStormIsAbsorbedAcrossWorkers) {
  FaultInjector::Global().Seed(1234);
  FaultInjector::Global().ArmProbability("op.null_filter", 0.02,
                                         util::PanicKind::kBoundsCheck);

  RuntimeConfig cfg;
  cfg.workers = 4;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"null", [](std::size_t) { return std::make_unique<NullFilter>(); }});
  Runtime rt(cfg, spec);
  rt.Start();

  constexpr int kBatches = 400;
  constexpr std::uint64_t kBatchSize = 16;
  FlowSampler sampler(128, 0.0, 37);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_GT(stats.totals.faults, 0u) << "storm fired nothing at 2% over 6400";
  EXPECT_GE(stats.totals.recoveries, 1u);
  EXPECT_EQ(stats.totals.quarantined, 0u)
      << "transient injected faults must not quarantine a healthy stage";
  EXPECT_GT(stats.totals.packets, 0u);
  EXPECT_EQ(stats.totals.packets + stats.totals.drops, kBatches * kBatchSize);
  EXPECT_GT(FaultInjector::Global().StatsFor("op.null_filter").fires, 0u);
}

// Which threads built and ran a stage: the factory logs each call, the
// operator each batch. The operator panics on its second batch.
struct ThreadLog {
  std::mutex mu;
  std::vector<std::thread::id> built;
  std::vector<std::thread::id> ran;
};

class LogsThreadFaultsOnSecond : public Operator {
 public:
  explicit LogsThreadFaultsOnSecond(ThreadLog* log) : log_(log) {}

  PacketBatch Process(PacketBatch batch) override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->ran.push_back(std::this_thread::get_id());
    }
    if (++batches_ == 2) {
      util::Panic(util::PanicKind::kAssertFailed, "second batch");
    }
    return batch;
  }

  std::string_view name() const override { return "logs-thread"; }

 private:
  ThreadLog* log_;
  std::uint64_t batches_ = 0;
};

// A faulted stage is rebuilt by the worker that saw the fault, on its own
// thread: every factory call after construction runs where the batches do.
TEST_F(SupervisionTest, RecoveryRunsOnTheFaultingWorker) {
  ThreadLog log;
  RuntimeConfig cfg;
  cfg.workers = 1;
  std::vector<StageSpec> spec;
  spec.push_back({"logs-thread", [&log](std::size_t) {
                    std::lock_guard<std::mutex> lock(log.mu);
                    log.built.push_back(std::this_thread::get_id());
                    return std::make_unique<LogsThreadFaultsOnSecond>(&log);
                  }});
  Runtime rt(cfg, spec);
  const std::size_t built_at_construction = log.built.size();
  rt.Start();

  FlowSampler sampler(16, 0.0, 43);
  FlowFeeder feeder(&sampler);
  for (int i = 0; i < 6; ++i) {
    rt.Dispatch(feeder.Next(8));
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.totals.faults, 1u);
  EXPECT_EQ(stats.totals.recoveries, stats.totals.faults);
  ASSERT_FALSE(log.ran.empty());
  const std::thread::id worker = log.ran.front();
  for (const std::thread::id& id : log.ran) {
    EXPECT_EQ(id, worker) << "one worker runs every batch";
  }
  ASSERT_GT(log.built.size(), built_at_construction)
      << "the faulted stage was never rebuilt";
  for (std::size_t i = built_at_construction; i < log.built.size(); ++i) {
    EXPECT_EQ(log.built[i], worker)
        << "recovery " << i - built_at_construction
        << " ran off the faulting worker's thread";
  }
}

// Holds the first batch it sees until the test opens the gate.
class HoldsFirstBatch : public Operator {
 public:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;
  };

  explicit HoldsFirstBatch(Gate* gate) : gate_(gate) {}

  PacketBatch Process(PacketBatch batch) override {
    std::unique_lock<std::mutex> lock(gate_->mu);
    if (!gate_->entered) {
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [this] { return gate_->open; });
    }
    return batch;
  }

  std::string_view name() const override { return "holds-first"; }

 private:
  Gate* gate_;
};

// A worker with a full ring meets each fault with its next batch already
// waiting. That batch must reach a recovered stage: the only packets lost
// are those of the batches that faulted.
TEST_F(SupervisionTest, NoBatchIsDroppedWaitingForRecovery) {
  constexpr std::size_t kBatchSize = 8;
  constexpr int kQueued = 24;
  HoldsFirstBatch::Gate gate;
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 32;
  std::vector<StageSpec> spec;
  spec.push_back({"gate", [&gate](std::size_t) {
                    return std::make_unique<HoldsFirstBatch>(&gate);
                  }});
  spec.push_back({"flaky",
                  [](std::size_t) { return std::make_unique<NullFilter>(5); },
                  DegradePolicy::kDrop});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(64, 0.0, 47);
  FlowFeeder feeder(&sampler);
  ASSERT_TRUE(rt.Dispatch(feeder.Next(kBatchSize)));
  bool entered = false;
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    entered = gate.cv.wait_for(lock, std::chrono::seconds(2),
                               [&gate] { return gate.entered; });
  }
  // The ring has room for every queued batch, so none of these blocks; no
  // ASSERT until the gate opens, or Shutdown would wait on the held worker.
  int queued = 0;
  for (int i = 0; i < kQueued; ++i) {
    queued += rt.Dispatch(feeder.Next(kBatchSize)) ? 1 : 0;
  }
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();
  rt.Shutdown();
  ASSERT_TRUE(entered) << "the worker never reached the gate";
  ASSERT_EQ(queued, kQueued);

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.totals.packets + stats.totals.drops,
            (kQueued + 1) * kBatchSize);
  EXPECT_GE(stats.totals.faults, 1u);
  EXPECT_EQ(stats.totals.drops, stats.totals.faults * kBatchSize)
      << "a batch popped after a fault met a stage still down";
  EXPECT_EQ(stats.totals.recoveries, stats.totals.faults);
}

}  // namespace
}  // namespace net
