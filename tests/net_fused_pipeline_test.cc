// Schedule IR + fusion-group tests: the fused schedule must be
// *semantically invisible* — same delivered bytes, same per-stage health,
// same checkpoint images as the interpreted schedule — while collapsing
// co-trusted stages into one protection domain (one rref call per group).
// Fault attribution stays per-member: a panic inside a fused group pins the
// member the domain last entered, and a crash-looping member is split out
// into its own quarantined singleton while its innocent neighbours re-form
// and keep serving.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/headers.h"
#include "src/net/mempool.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/operators/ttl.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/net/schedule.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {
namespace {

using util::FaultInjector;

PacketBatch MakeBatch(Mempool& pool, std::size_t n, std::uint8_t ttl = 64) {
  PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    PacketBuf pkt = PacketBuf::Alloc(&pool, 64);
    BuildFrame(pkt,
               FiveTuple{0x0a000000u + static_cast<std::uint32_t>(i),
                         0xc0a80001u, static_cast<std::uint16_t>(1000 + i),
                         80, Ipv4Hdr::kProtoUdp},
               ttl);
    batch.Push(std::move(pkt));
  }
  return batch;
}

// --- Schedule resolution -------------------------------------------------

TEST(ScheduleIR, InterpretedIsAllSingletons) {
  const auto groups = ResolveSchedule(PipelineSchedule::Interpreted(), 4);
  ASSERT_EQ(groups.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(groups[i], std::vector<std::size_t>{i});
  }
}

TEST(ScheduleIR, FuseCollapsesAdjacentRuns) {
  const auto groups =
      ResolveSchedule(PipelineSchedule().Fuse(0, 2).Fuse(3, 4), 6);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(groups[2], std::vector<std::size_t>{5});
}

TEST(ScheduleIR, IsolatePinWinsOverFuse) {
  // Fuse the whole chain, then pin stage 2: the run must split around it
  // regardless of directive order.
  const auto groups = ResolveSchedule(PipelineSchedule().Fuse(0, 4).Isolate(2), 5);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1], std::vector<std::size_t>{2});
  EXPECT_EQ(groups[2], (std::vector<std::size_t>{3, 4}));
}

// --- Fused vs interpreted differential (standalone pipeline) -------------

// Same operator chain, same traffic, two schedules: delivered frames must
// be byte-identical and per-stage health identical, while the fused
// pipeline pays exactly one domain crossing per batch.
TEST(FusedPipeline, FusedScheduleIsSemanticallyInvisible) {
  Mempool pool(256, 2048);
  auto build = [](IsolatedPipeline& pipe) {
    pipe.AddStage("ttl", [] { return std::make_unique<TtlDecrement>(); });
    pipe.AddStage("nat",
                  [] { return std::make_unique<NatRewrite>(0x05050505); });
    pipe.AddStage("tap", [] { return std::make_unique<NullFilter>(); });
  };
  sfi::DomainManager mgr_interp;
  IsolatedPipeline interp(&mgr_interp);
  build(interp);
  sfi::DomainManager mgr_fused;
  IsolatedPipeline fused(&mgr_fused);
  build(fused);
  fused.ApplySchedule(ResolveSchedule(PipelineSchedule().Fuse(0, 2), 3));
  ASSERT_EQ(fused.group_count(), 1u);
  ASSERT_EQ(interp.group_count(), 3u);

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    auto a = interp.Run(MakeBatch(pool, 16));
    auto b = fused.Run(MakeBatch(pool, 16));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (std::size_t i = 0; i < a.value().size(); ++i) {
      const PacketBuf& pa = a.value()[i];
      const PacketBuf& pb = b.value()[i];
      ASSERT_EQ(pa.length(), pb.length());
      EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.length()), 0)
          << "fused delivery must be byte-identical (round " << round
          << ", packet " << i << ")";
    }
  }
  for (std::size_t s = 0; s < 3; ++s) {
    const StageHealth hi = interp.health(s);
    const StageHealth hf = fused.health(s);
    EXPECT_EQ(hi.name, hf.name);
    EXPECT_EQ(hf.faults, hi.faults);
    EXPECT_EQ(hf.quarantined, hi.quarantined);
    EXPECT_EQ(hf.quarantine_drop_pkts, hi.quarantine_drop_pkts);
  }
  // The crossing economics: 3 rref calls per batch interpreted, 1 fused.
  EXPECT_EQ(mgr_interp.AggregateStats().calls_ok,
            static_cast<std::uint64_t>(kRounds) * 3);
  EXPECT_EQ(mgr_fused.AggregateStats().calls_ok,
            static_cast<std::uint64_t>(kRounds) * 1);
}

TEST(FusedPipeline, FaultInsideGroupAttributesToTheEnteredMember) {
  Mempool pool(64, 2048);
  sfi::DomainManager mgr;
  IsolatedPipeline pipe(&mgr);
  pipe.AddStage("ok-a", [] { return std::make_unique<NullFilter>(); });
  pipe.AddStage("crashy",
                [] { return std::make_unique<NullFilter>(/*fault=*/1); });
  pipe.AddStage("ok-b", [] { return std::make_unique<NullFilter>(); });
  pipe.ApplySchedule(ResolveSchedule(PipelineSchedule().Fuse(0, 2), 3));

  auto result = pipe.Run(MakeBatch(pool, 8));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), sfi::CallError::kFault);
  EXPECT_EQ(pool.in_use(), 0u) << "in-flight batch reclaimed during unwind";
  EXPECT_EQ(pipe.health(0).faults, 0u);
  EXPECT_EQ(pipe.health(1).faults, 1u)
      << "the group's last-entered member owns the fault";
  EXPECT_EQ(pipe.health(2).faults, 0u);
}

TEST(FusedPipeline, CrashLoopingMemberSplitsOutOfItsGroup) {
  Mempool pool(64, 2048);
  sfi::DomainManager mgr;
  IsolatedPipeline pipe(&mgr);
  pipe.AddStage("ok-a", [] { return std::make_unique<NullFilter>(); });
  pipe.AddStage("crashy",
                [] { return std::make_unique<NullFilter>(/*fault=*/1); },
                DegradePolicy::kPassthrough);
  pipe.AddStage("ok-b", [] { return std::make_unique<NullFilter>(); });
  pipe.ApplySchedule(ResolveSchedule(PipelineSchedule().Fuse(0, 2), 3));
  ASSERT_EQ(pipe.group_count(), 1u);

  // Crash-loop the middle member past its retry budget.
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(pipe.Run(MakeBatch(pool, 4)).ok());
    pipe.RecoverFailedStages(/*max_attempts=*/1);
  }
  // Quarantine must split the *member* out, not condemn the group: the
  // pipeline re-forms as {ok-a} {crashy} {ok-b}.
  EXPECT_EQ(pipe.QuarantinedStages(), 1u);
  EXPECT_TRUE(pipe.health(1).quarantined);
  EXPECT_FALSE(pipe.health(0).quarantined);
  EXPECT_FALSE(pipe.health(2).quarantined);
  const auto shape = pipe.GroupShape();
  ASSERT_EQ(shape.size(), 3u);
  EXPECT_EQ(shape[0], std::vector<std::size_t>{0});
  EXPECT_EQ(shape[1], std::vector<std::size_t>{1});
  EXPECT_EQ(shape[2], std::vector<std::size_t>{2});
  EXPECT_EQ(pipe.domain(0).state(), sfi::DomainState::kRunning);
  EXPECT_EQ(pipe.domain(1).state(), sfi::DomainState::kRetired);
  EXPECT_EQ(pipe.domain(2).state(), sfi::DomainState::kRunning);

  // The innocent neighbours keep serving (kPassthrough bypasses the corpse).
  auto out = pipe.Run(MakeBatch(pool, 8));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 8u);
  EXPECT_EQ(pipe.health(1).passthrough_batches, 1u);
}

// Checkpoint-image compatibility rule: images are per-operator in add
// order whatever the fusion, so a checkpoint captured under one schedule
// restores into any other — and an image from another pipeline (a stage
// renamed or missing) panics instead of restoring into the wrong stage.
TEST(FusedPipeline, CheckpointsRestoreAcrossSchedules) {
  Mempool pool(256, 2048);
  auto build = [](IsolatedPipeline& pipe) {
    pipe.AddStage("ttl", [] { return std::make_unique<TtlDecrement>(); });
    pipe.AddStage("nat",
                  [] { return std::make_unique<NatRewrite>(0x05050505); });
  };
  sfi::DomainManager mgr_a;
  IsolatedPipeline interp(&mgr_a);
  build(interp);
  ASSERT_TRUE(interp.Run(MakeBatch(pool, 8)).ok());
  const std::vector<StageImage> images = interp.CheckpointStages();
  ASSERT_EQ(images.size(), 2u);

  sfi::DomainManager mgr_b;
  IsolatedPipeline fused(&mgr_b);
  build(fused);
  fused.ApplySchedule(ResolveSchedule(PipelineSchedule().Fuse(0, 1), 2));
  EXPECT_EQ(fused.RestoreStages(images), 1u) << "nat state reloads";

  // Same flows through the restored fused pipeline: NAT must reuse the
  // interpreted run's port allocations (state really crossed schedules).
  auto a = interp.Run(MakeBatch(pool, 8));
  auto b = fused.Run(MakeBatch(pool, 8));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(NetToHost16(b.value()[i].udp()->src_port),
              NetToHost16(a.value()[i].udp()->src_port));
  }

  // An image from another pipeline: a renamed stage, or one stage short.
  std::vector<StageImage> renamed = images;
  renamed[1].name = "nat-v2";
  EXPECT_THROW(fused.RestoreStages(renamed), util::PanicError);
  std::vector<StageImage> short_one = images;
  short_one.pop_back();
  EXPECT_THROW(fused.RestoreStages(short_one), util::PanicError);
}

// --- Runtime differential (the TSan case) --------------------------------

class FusedRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

bool DrainTo(Runtime& rt, std::uint64_t dispatched) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    const RuntimeStats s = rt.Stats();
    if (s.totals.packets + s.totals.drops + s.steer_dropped_items >=
        dispatched) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::vector<StageSpec> Chain3(DegradePolicy middle_degrade,
                              std::uint64_t middle_fault_every_n) {
  std::vector<StageSpec> spec;
  spec.push_back({"ttl", [](std::size_t) {
                    return std::make_unique<TtlDecrement>();
                  }});
  spec.push_back({"mid",
                  [middle_fault_every_n](std::size_t) {
                    return std::make_unique<NullFilter>(middle_fault_every_n);
                  },
                  middle_degrade});
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<NatRewrite>(0x0a000001);
                  }});
  return spec;
}

// Same seeded traffic through an interpreted and a fused runtime: the
// exactly-once ledger must hold in both, and with no faults the delivered
// packet counts are identical.
TEST_F(FusedRuntimeTest, FusedRuntimeConservesLikeInterpreted) {
  std::uint64_t delivered[2] = {0, 0};
  for (int fused = 0; fused < 2; ++fused) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    if (fused) {
      cfg.schedule.Fuse(0, 2);
    }
    Runtime rt(cfg, Chain3(DegradePolicy::kDrop, 0));
    rt.Start();
    FlowSampler sampler(64, 0.0, 29);
    FlowFeeder feeder(&sampler);
    std::uint64_t dispatched = 0;
    for (int i = 0; i < 40; ++i) {
      rt.Dispatch(feeder.Next(16));
      dispatched += 16;
    }
    ASSERT_TRUE(DrainTo(rt, dispatched));
    rt.Shutdown();
    const RuntimeStats s = rt.Stats();
    EXPECT_EQ(s.totals.packets + s.totals.drops + s.steer_dropped_items,
              dispatched)
        << s.Summary();
    EXPECT_EQ(s.totals.faults, 0u);
    delivered[fused] = s.totals.packets;
  }
  EXPECT_EQ(delivered[0], delivered[1])
      << "fault-free schedules must deliver identically";
}

// A deterministic crasher fused between two healthy stages: each worker's
// in-place recovery must quarantine only that member on its replica — its
// group neighbours split out and keep the shard serving — and conservation
// holds across the quarantine while Stats() scrapes concurrently (the TSan
// half).
TEST_F(FusedRuntimeTest, FaultInFusedGroupQuarantinesOnlyTheMember) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.schedule.Fuse(0, 2);
  Runtime rt(cfg, Chain3(DegradePolicy::kPassthrough, /*fault_every_n=*/1));
  rt.Start();

  FlowSampler sampler(64, 0.0, 31);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(4);
  bool quarantined_everywhere = false;
  while (std::chrono::steady_clock::now() < deadline) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
    const RuntimeStats s = rt.Stats();
    if (s.stages[1].quarantined_replicas == cfg.workers &&
        s.totals.packets > 0) {
      quarantined_everywhere = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(quarantined_everywhere)
      << "crashy member never quarantined on all replicas: "
      << rt.Stats().Summary();
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  const RuntimeStats s = rt.Stats();
  EXPECT_EQ(s.stages[0].quarantined_replicas, 0u)
      << "innocent group member condemned";
  EXPECT_EQ(s.stages[2].quarantined_replicas, 0u)
      << "innocent group member condemned";
  EXPECT_EQ(s.stages[1].quarantined_replicas, cfg.workers);
  EXPECT_GT(s.stages[1].faults, 0u);
  EXPECT_EQ(s.stages[0].faults + s.stages[2].faults, 0u)
      << "faults must attribute to the entered member only";
  EXPECT_GT(s.totals.packets, 0u)
      << "split-out neighbours must keep the shard serving (kPassthrough)";
  EXPECT_EQ(s.totals.packets + s.totals.drops + s.steer_dropped_items,
            dispatched)
      << s.Summary();
}

// Live checkpoint + failover with a fused schedule: per-operator images are
// captured through the group rref, restored by position into the fused
// replica, and the exactly-once ledger holds across the failover.
TEST_F(FusedRuntimeTest, FusedCheckpointFailoverConserves) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.schedule.Fuse(0, 2);
  cfg.ckpt.enabled = true;
  Runtime rt(cfg, Chain3(DegradePolicy::kDrop, 0));
  rt.Start();

  FlowSampler sampler(48, 0.0, 37);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  for (int i = 0; i < 20; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage image = rt.CheckpointImageCopy();
  ASSERT_EQ(image.workers.size(), 2u);
  // Per-operator image shape regardless of fusion: 3 images, nat present.
  ASSERT_EQ(image.workers[0].stages.size(), 3u);
  EXPECT_EQ(image.workers[0].stages[2].present, 1u);
  EXPECT_EQ(image.workers[0].stages[0].present, 0u) << "ttl is stateless";

  for (int i = 0; i < 20; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  ASSERT_TRUE(rt.FailoverWorker(1));
  for (int i = 0; i < 10; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  const RuntimeStats s = rt.Stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.totals.packets + s.totals.drops + s.steer_dropped_items,
            dispatched)
      << s.Summary();
}

}  // namespace
}  // namespace net
