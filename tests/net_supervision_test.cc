// Supervisor hardening under injected fault storms: recovery-fn panics are
// contained, crash-looping stages are quarantined, each DegradePolicy does
// what it says, MTTR is measured, the watchdog flags stuck workers, and
// out-of-domain panics (mempool) do not kill worker threads.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
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

// Tight supervisor knobs so crash loops resolve in milliseconds, not the
// production defaults.
SupervisionConfig FastSupervision(std::size_t max_attempts) {
  SupervisionConfig sup;
  sup.max_recovery_attempts = max_attempts;
  sup.watchdog_period_ms = 2;
  return sup;
}

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
    cfg.supervision = FastSupervision(/*max_attempts=*/8);
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
    // Let the supervisor finish the last recoveries before shutdown.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (rt.Stats().totals.recoveries < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rt.Shutdown();

    const RuntimeStats stats = rt.Stats();
    EXPECT_EQ(stats.totals.packets + stats.totals.drops, kBatches * kBatchSize);
    EXPECT_GE(stats.totals.faults, 2u);
    EXPECT_GE(stats.totals.recoveries, 2u);
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
  cfg.supervision = FastSupervision(/*max_attempts=*/3);
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
  EXPECT_GE(stage.recovery_panics, cfg.supervision.max_recovery_attempts);
  EXPECT_EQ(stage.recoveries, 0u) << "every recovery attempt was sabotaged";
  EXPECT_GT(stage.passthrough_batches, 0u);
  EXPECT_GE(stats.totals.recovery_panics,
            cfg.supervision.max_recovery_attempts);
  EXPECT_EQ(stats.totals.quarantined, 1u);
  // Reaching this line at all is the real assertion: no std::terminate.
}

TEST_F(SupervisionTest, QuarantineDropPolicyCountsAndConserves) {
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/2);
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

TEST_F(SupervisionTest, QuarantineFailFastSurfacesDistinctError) {
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/2);
  Runtime rt(cfg, AlwaysFaultingStage(DegradePolicy::kFailFast));
  rt.Start();

  FlowSampler sampler(32, 0.0, 19);
  FlowFeeder feeder(&sampler);
  const bool failed_fast = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return !s.stages.empty() && s.stages[0].failfast_batches > 0;
  });
  rt.Shutdown();
  ASSERT_TRUE(failed_fast) << "kFailFast never rejected a batch";

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.stages[0].quarantined_replicas, 1u);
  // Fail-fast rejections are not stage faults: the stage was never entered.
  EXPECT_GT(stats.stages[0].failfast_batches, 0u);
}

// Transient faults (operator panics every 5th batch, recovery fn healthy):
// the supervisor recovers, the stage is never quarantined, and each
// fault->first-good-batch incident leaves an MTTR sample.
TEST_F(SupervisionTest, TransientFaultsRecordMttrWithoutQuarantine) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/4);
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

// An operator that goes comatose on its first batch. The supervisor's
// watchdog (busy worker, unmoving heartbeat across a period) must flag it.
class SleepyOperator : public Operator {
 public:
  PacketBatch Process(PacketBatch batch) override {
    if (!slept_) {
      slept_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    return batch;
  }
  std::string_view name() const override { return "sleepy"; }

 private:
  bool slept_ = false;
};

TEST_F(SupervisionTest, WatchdogFlagsStuckWorker) {
  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/4);  // 2ms watchdog
  std::vector<StageSpec> spec;
  spec.push_back({"sleepy", [](std::size_t) {
                    return std::make_unique<SleepyOperator>();
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(16, 0.0, 29);
  FlowFeeder feeder(&sampler);
  rt.Dispatch(feeder.Next(8));  // the batch the worker naps on
  const bool stalled = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return s.totals.stalls >= 1;
  });
  rt.Shutdown();
  EXPECT_TRUE(stalled) << "watchdog never flagged the sleeping worker";
  EXPECT_GT(rt.Stats().totals.packets, 0u)
      << "worker must finish the batch after its nap";
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
  cfg.supervision = FastSupervision(/*max_attempts=*/8);
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

// Quarantine probation, success path: the stage crash-loops into quarantine
// while the injected faults are armed; once the cool-down elapses the
// supervisor grants a probe batch through a fresh domain, the (now healthy)
// stage passes it, and the replica is back in service.
TEST_F(SupervisionTest, ProbationUnquarantinesARecoveredStage) {
  FaultInjector::Global().Seed(101);
  FaultInjector::Global().ArmProbability("op.null_filter", 1.0);
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/2);
  cfg.supervision.probation_cooldown_batches = 3;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"probed", [](std::size_t) { return std::make_unique<NullFilter>(); },
       DegradePolicy::kPassthrough});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(32, 0.0, 67);
  FlowFeeder feeder(&sampler);
  const bool quarantined = DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
    return s.stages[0].quarantined_replicas == 1;
  });
  ASSERT_TRUE(quarantined);

  // The faults clear (the outage ends); degraded batches burn the cool-down
  // and the probe goes through the fresh domain cleanly.
  FaultInjector::Global().Reset();
  const bool unquarantined =
      DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
        return s.unquarantines >= 1;
      });
  ASSERT_TRUE(unquarantined) << "probe never brought the stage back";

  // Back in service: packets flow through the stage again (not passthrough).
  const RuntimeStats mid = rt.Stats();
  const bool serving = DispatchUntil(rt, feeder, [&mid](const RuntimeStats& s) {
    return s.totals.packets > mid.totals.packets &&
           s.stages[0].quarantined_replicas == 0;
  });
  rt.Shutdown();
  EXPECT_TRUE(serving);

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.stages[0].probes, 1u);
  EXPECT_GE(stats.stages[0].unquarantines, 1u);
  EXPECT_EQ(stats.stages[0].quarantined_replicas, 0u);
  EXPECT_GE(stats.unquarantines, 1u);
}

// Probation, failure path: the outage persists, so the probe batch faults in
// the fresh domain — the stage re-quarantines and the cool-down doubles
// (bounded retries, no probe storm against a still-dead dependency).
TEST_F(SupervisionTest, FailedProbeRequarantinesWithBackoff) {
  FaultInjector::Global().Seed(103);
  FaultInjector::Global().ArmProbability("op.null_filter", 1.0);
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.supervision = FastSupervision(/*max_attempts=*/2);
  cfg.supervision.probation_cooldown_batches = 2;
  std::vector<StageSpec> spec;
  spec.push_back(
      {"probed", [](std::size_t) { return std::make_unique<NullFilter>(); },
       DegradePolicy::kPassthrough});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(32, 0.0, 71);
  FlowFeeder feeder(&sampler);
  const bool requarantined =
      DispatchUntil(rt, feeder, [](const RuntimeStats& s) {
        return s.requarantines >= 2;
      });
  rt.Shutdown();
  ASSERT_TRUE(requarantined) << "failed probes never re-quarantined";

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.stages[0].probes, 2u);
  EXPECT_GE(stats.stages[0].requarantines, 2u);
  EXPECT_EQ(stats.stages[0].unquarantines, 0u);
  EXPECT_EQ(stats.stages[0].quarantined_replicas, 1u)
      << "stage must end back in quarantine while the outage persists";
  // Doubling cool-down: with cooldown 2 -> 4 -> 8, the second re-quarantine
  // needs strictly more degraded batches than the first. The probe count
  // being small relative to total batches is the observable effect.
  EXPECT_LT(stats.stages[0].probes * 2, stats.totals.batches +
                                            stats.stages[0].passthrough_batches)
      << "probe storm: cool-down doubling is not damping probes";
}

}  // namespace
}  // namespace net
