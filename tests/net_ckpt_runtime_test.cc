// Live checkpointing & failover of the running sharded runtime
// (Runtime::CheckpointLive / FailoverWorker): epoch quiesce completes on an
// idle runtime, a checkpoint + forced failover under live traffic loses
// zero packets (the exactly-once invariant), failover restores stage state
// from the snapshot and replays the victim's queued flows on it,
// degraded (quarantined) pipelines round-trip, and the injected
// ckpt.failover_resync / ckpt.replica_restore faults refuse the operation
// cleanly instead of losing state.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/snapshot.h"
#include "src/ckpt/traits.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/util/fault_injector.h"

namespace net {
namespace {

using util::FaultInjector;

class CkptRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::vector<StageSpec> NatStage() {
  std::vector<StageSpec> spec;
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<NatRewrite>(0x0a000001);
                  }});
  return spec;
}

RuntimeConfig CkptConfigFor(std::size_t workers) {
  RuntimeConfig cfg;
  cfg.workers = workers;
  cfg.ckpt.enabled = true;
  cfg.supervision.watchdog_period_ms = 2;
  return cfg;
}

// Waits (~2s) until every dispatched item is accounted (processed or
// dropped), i.e. all queues and in-flight batches have drained.
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

// Holds worker 0 inside the first batch it sees while `hold` is set; every
// other batch passes straight through.
class GateStage : public Operator {
 public:
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    bool hold = false;
    bool entered = false;
  };

  GateStage(std::size_t worker, Shared* shared)
      : worker_(worker), shared_(shared) {}

  PacketBatch Process(PacketBatch batch) override {
    if (worker_ == 0) {
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (shared_->hold && !shared_->entered) {
        shared_->entered = true;
        shared_->cv.notify_all();
        shared_->cv.wait(lock, [this] { return !shared_->hold; });
      }
    }
    return batch;
  }

  std::string_view name() const override { return "gate"; }

 private:
  std::size_t worker_;
  Shared* shared_;
};

// Logs which replica delivered each packet: the flow (its destination port,
// which NAT leaves alone), the packet's sequence stamp, and the source port
// NAT assigned.
class DeliveryRecorder : public Operator {
 public:
  struct Delivery {
    std::size_t worker = 0;
    std::uint16_t flow_port = 0;
    std::uint64_t seq = 0;
    std::uint16_t nat_port = 0;
  };
  struct Shared {
    std::mutex mu;
    std::vector<Delivery> log;
  };

  DeliveryRecorder(std::size_t worker, Shared* shared)
      : worker_(worker), shared_(shared) {}

  PacketBatch Process(PacketBatch batch) override {
    std::lock_guard<std::mutex> lock(shared_->mu);
    for (PacketBuf& pkt : batch) {
      const FiveTuple t = pkt.Tuple();
      shared_->log.push_back(
          Delivery{worker_, t.dst_port, ReadFlowSeq(pkt), t.src_port});
    }
    return batch;
  }

  std::string_view name() const override { return "recorder"; }

 private:
  std::size_t worker_;
  Shared* shared_;
};

// Decodes a StageImage produced by a NatRewrite stage back into its State.
NatRewrite::State DecodeNatImage(const StageImage& img) {
  ckpt::Snapshot snap;
  snap.bytes.assign(img.bytes.begin(), img.bytes.end());
  ckpt::Reader reader(snap);
  return ckpt::Traits<NatRewrite::State>::Load(reader);
}

// An idle runtime has every worker parked in a blocking Recv; the epoch's
// empty-batch nudges must still walk each one to a batch boundary.
TEST_F(CkptRuntimeTest, EpochCompletesOnIdleRuntime) {
  Runtime rt(CkptConfigFor(2), NatStage());
  rt.Start();

  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage image = rt.CheckpointImageCopy();
  EXPECT_EQ(image.epoch, 1u);
  ASSERT_EQ(image.workers.size(), 2u);
  for (std::size_t w = 0; w < image.workers.size(); ++w) {
    EXPECT_EQ(image.workers[w].index, w) << "images must be index-sorted";
    ASSERT_EQ(image.workers[w].stages.size(), 1u);
    EXPECT_EQ(image.workers[w].stages[0].present, 1u);
    EXPECT_FALSE(image.workers[w].stages[0].bytes.empty());
  }
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.ckpt_epochs, 1u);
  EXPECT_EQ(stats.ckpt_epoch_failures, 0u);
  // Every worker paid (and recorded) one capture pause.
  EXPECT_EQ(stats.ckpt_pause_cycles.count, 2u);
}

// The acceptance invariant: periodic live checkpoints plus one forced
// failover while a producer thread keeps dispatching, and at the end every
// dispatched packet is processed or counted dropped — none vanish.
TEST_F(CkptRuntimeTest, CheckpointAndFailoverUnderTrafficLoseNothing) {
  RuntimeConfig cfg = CkptConfigFor(4);
  cfg.queue_depth = 48;  // ring backpressure bounds each worker's backlog
  Runtime rt(cfg, NatStage());
  rt.Start();

  FlowSampler sampler(96, 0.0, 41);
  FlowFeeder feeder(&sampler);
  constexpr std::uint64_t kBatches = 600;
  constexpr std::size_t kBurst = 16;
  std::uint64_t dispatched = 0;  // read only after the join
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kBatches; ++i) {
      if (rt.Dispatch(feeder.Next(kBurst))) {
        dispatched += kBurst;
      }
    }
  });

  // Drive checkpoint epochs against the live traffic; dispatch is never
  // paused, so each epoch only costs the workers their capture pauses.
  std::uint64_t epochs = 0;
  for (int i = 0; i < 50 && epochs < 3; ++i) {
    if (rt.CheckpointLive()) {
      ++epochs;
    }
  }
  // Forced failover mid-traffic: worker 1 "loses" its state and is resynced
  // from the replicated snapshot; its queued flows stay queued on it.
  bool failed_over = false;
  for (int i = 0; i < 100 && !failed_over; ++i) {
    failed_over = rt.FailoverWorker(1);
  }
  producer.join();
  ASSERT_GE(epochs, 3u) << "live epochs kept timing out under traffic";
  EXPECT_TRUE(failed_over);
  EXPECT_EQ(dispatched, kBatches * kBurst);
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.ckpt_epochs, 3u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.failover_failures, 0u);
  EXPECT_GT(stats.ckpt_pause_cycles.count, 0u);
  EXPECT_EQ(stats.failover_resync_cycles.count, 1u);
  // Exactly-once: dispatched == delivered + counted drops, across a live
  // checkpoint AND a failover. steer_dropped_items covers only the
  // shutdown-race refusals (none expected here, but the invariant is the
  // sum).
  EXPECT_EQ(stats.totals.packets + stats.totals.drops +
                stats.steer_dropped_items,
            dispatched)
      << stats.Summary();
}

// Failover replaces the victim's live stage state with its snapshot slice:
// NAT flows learned *after* the checkpoint are gone (that is the state-loss
// event being modeled), flows captured in the snapshot survive.
TEST_F(CkptRuntimeTest, FailoverRestoresStageStateFromSnapshot) {
  Runtime rt(CkptConfigFor(2), NatStage());
  rt.Start();

  FlowSampler phase_a(8, 0.0, 47);
  FlowFeeder feeder_a(&phase_a);
  std::uint64_t dispatched = 0;
  for (int i = 0; i < 8; ++i) {
    rt.Dispatch(feeder_a.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage at_ckpt = rt.CheckpointImageCopy();
  const NatRewrite::State ckpt_state =
      DecodeNatImage(at_ckpt.workers[0].stages[0]);

  // Phase B: new flows, learned only by the live tables — never
  // checkpointed.
  FlowSampler phase_b(64, 0.0, 53);
  FlowFeeder feeder_b(&phase_b);
  for (int i = 0; i < 16; ++i) {
    rt.Dispatch(feeder_b.Next(16));
    dispatched += 16;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));

  ASSERT_TRUE(rt.FailoverWorker(0));
  // Quiesced since the drain: worker 0's next capture shows exactly the
  // restored (phase-A) state, while worker 1 kept its phase-B flows.
  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage after = rt.CheckpointImageCopy();
  const NatRewrite::State restored =
      DecodeNatImage(after.workers[0].stages[0]);
  const NatRewrite::State survivor =
      DecodeNatImage(after.workers[1].stages[0]);
  EXPECT_EQ(restored.flow_ports, ckpt_state.flow_ports)
      << "victim state must be exactly the snapshot slice";
  EXPECT_EQ(restored.translated, ckpt_state.translated);
  EXPECT_GT(survivor.flow_ports.size(),
            DecodeNatImage(at_ckpt.workers[1].stages[0]).flow_ports.size())
      << "survivor must keep its post-checkpoint flows";
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.totals.packets + stats.totals.drops +
                stats.steer_dropped_items,
            dispatched);
}

// Failover keeps every flow on its hash home. Worker 0 is held inside a batch
// while batches of other snapshot flows queue behind it, and FailoverWorker(0)
// runs from a helper thread meanwhile. Each queued flow must then be
// delivered by its home worker with the NAT port its snapshot slice holds: a
// failover that moved the queued batches to worker 1 would deliver them
// there, under ports worker 1 assigns afresh.
TEST_F(CkptRuntimeTest, FailoverReplaysQueuedFlowsOnTheVictimsRestoredState) {
  GateStage::Shared gate;
  DeliveryRecorder::Shared recorder;
  std::vector<StageSpec> spec;
  spec.push_back({"gate", [&gate](std::size_t w) {
                    return std::make_unique<GateStage>(w, &gate);
                  }});
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<NatRewrite>(0x0a000001);
                  }});
  spec.push_back({"recorder", [&recorder](std::size_t w) {
                    return std::make_unique<DeliveryRecorder>(w, &recorder);
                  }});
  Runtime rt(CkptConfigFor(2), spec);
  rt.Start();

  std::vector<FiveTuple> flows;
  for (std::uint16_t i = 0; i < 32; ++i) {
    FiveTuple t;
    t.src_ip = 0x0a000002;
    t.dst_ip = 0x0a000003;
    t.src_port = static_cast<std::uint16_t>(1000 + i);
    t.dst_port = static_cast<std::uint16_t>(2000 + i);
    flows.push_back(t);
  }
  auto batch_of = [](const std::vector<FiveTuple>& tuples, std::uint64_t seq) {
    FlowBatch batch;
    for (const FiveTuple& t : tuples) {
      batch.Push(FlowWork{t, seq});
    }
    return batch;
  };

  // Seq 0: every flow once, then the snapshot captures their NAT ports.
  std::uint64_t dispatched = flows.size();
  ASSERT_TRUE(rt.Dispatch(batch_of(flows, 0)));
  ASSERT_TRUE(DrainTo(rt, dispatched));
  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage image = rt.CheckpointImageCopy();
  ASSERT_EQ(image.workers.size(), 2u);
  std::vector<std::size_t> home(flows.size());
  std::vector<FiveTuple> victim_flows;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    home[i] = rt.WorkerFor(flows[i]);
    if (home[i] == 0) {
      victim_flows.push_back(flows[i]);
    }
  }
  ASSERT_GE(victim_flows.size(), 2u);

  // Seq 1: the first victim flow's batch holds worker 0 in the gate; every
  // other flow follows in its own batch, so worker 0's queue backs up.
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.hold = true;
  }
  ASSERT_TRUE(rt.Dispatch(batch_of({victim_flows[0]}, 1)));
  ++dispatched;
  bool entered = false;
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    entered = gate.cv.wait_for(lock, std::chrono::seconds(2),
                               [&gate] { return gate.entered; });
  }
  // No ASSERT until the gate opens: returning early would leave worker 0
  // held and Shutdown waiting on it.
  std::size_t queued = 0;
  for (const FiveTuple& t : flows) {
    if (!(t == victim_flows[0]) && rt.Dispatch(batch_of({t}, 1))) {
      ++dispatched;
      ++queued;
    }
  }
  bool failed_over = false;
  std::thread failover([&rt, &failed_over] {
    failed_over = rt.FailoverWorker(0);
  });
  // Let the failover act on worker 0's queue while the gate holds it. It
  // cannot complete before the gate opens: the restore takes the victim's
  // pipeline lock, which the held batch owns.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.hold = false;
  }
  gate.cv.notify_all();
  failover.join();
  ASSERT_TRUE(entered) << "worker 0 never reached the gate";
  ASSERT_EQ(queued, flows.size() - 1);
  ASSERT_TRUE(failed_over);
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  std::size_t checked = 0;
  for (const DeliveryRecorder::Delivery& d : recorder.log) {
    if (d.seq != 1) {
      continue;
    }
    const std::size_t i = d.flow_port - 2000u;
    ASSERT_LT(i, flows.size());
    const NatRewrite::State slice =
        DecodeNatImage(image.workers[home[i]].stages[1]);
    const auto port = slice.flow_ports.find(flows[i].Hash());
    ASSERT_NE(port, slice.flow_ports.end())
        << "flow " << d.flow_port << " missing from its home's snapshot slice";
    EXPECT_EQ(d.worker, home[i]) << "flow " << d.flow_port << " left its home";
    EXPECT_EQ(d.nat_port, port->second)
        << "flow " << d.flow_port << " lost its snapshot NAT port";
    ++checked;
  }
  EXPECT_EQ(checked, queued + 1) << rt.Stats().Summary();
}

// A pipeline with a quarantined stage still checkpoints: the degraded
// stage's image carries the quarantine flag and no payload, healthy stages
// capture normally, and failover round-trips the degraded pipeline (the
// quarantined slot is skipped on restore, not resurrected).
TEST_F(CkptRuntimeTest, QuarantinedStageRoundTripsDegraded) {
  FaultInjector::Global().Seed(11);
  FaultInjector::Global().ArmProbability("sfi.recover", 1.0);

  RuntimeConfig cfg = CkptConfigFor(2);
  cfg.supervision.max_recovery_attempts = 2;
  std::vector<StageSpec> spec;
  // fault_every_n == 1 + sabotaged recovery: crash-loops into quarantine.
  spec.push_back({"crashy",
                  [](std::size_t) { return std::make_unique<NullFilter>(1); },
                  DegradePolicy::kPassthrough});
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<NatRewrite>(0x0a000001);
                  }});
  Runtime rt(cfg, spec);
  rt.Start();

  FlowSampler sampler(32, 0.0, 59);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool quarantined = false;
  while (std::chrono::steady_clock::now() < deadline && !quarantined) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
    quarantined = rt.Stats().stages[0].quarantined_replicas >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(quarantined);
  ASSERT_TRUE(DrainTo(rt, dispatched));

  ASSERT_TRUE(rt.CheckpointLive());
  const RuntimeCkptImage image = rt.CheckpointImageCopy();
  bool saw_quarantined_image = false;
  for (const WorkerCkptImage& w : image.workers) {
    ASSERT_EQ(w.stages.size(), 2u);
    if (w.stages[0].quarantined) {
      saw_quarantined_image = true;
      EXPECT_EQ(w.stages[0].present, 0u) << "no payload for a dead stage";
    }
    EXPECT_EQ(w.stages[1].present, 1u) << "healthy nat stage must capture";
  }
  EXPECT_TRUE(saw_quarantined_image);

  // Failover the degraded pipeline: the quarantined stage stays degraded,
  // the nat state restores, and traffic still flows (kPassthrough).
  ASSERT_TRUE(rt.FailoverWorker(0));
  for (int i = 0; i < 8; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_GE(stats.stages[0].quarantined_replicas, 1u);
  EXPECT_EQ(stats.totals.packets + stats.totals.drops +
                stats.steer_dropped_items,
            dispatched)
      << stats.Summary();
}

// Failing-before style: an injected ckpt.failover_resync fault mid-failover
// must refuse the failover (counted, state untouched) rather than escape or
// half-apply — and the retry must succeed once the fault clears.
TEST_F(CkptRuntimeTest, InjectedResyncFaultRefusesFailoverThenRetries) {
  Runtime rt(CkptConfigFor(2), NatStage());
  rt.Start();

  FlowSampler sampler(16, 0.0, 61);
  FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  for (int i = 0; i < 8; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  ASSERT_TRUE(rt.CheckpointLive());

  FaultInjector::Global().ArmOneShot("ckpt.failover_resync");
  EXPECT_FALSE(rt.FailoverWorker(0));
  EXPECT_EQ(rt.Stats().failover_failures, 1u);
  EXPECT_EQ(rt.Stats().failovers, 0u);

  // One-shot has burned: the retry goes through.
  EXPECT_TRUE(rt.FailoverWorker(0));
  for (int i = 0; i < 4; ++i) {
    rt.Dispatch(feeder.Next(8));
    dispatched += 8;
  }
  ASSERT_TRUE(DrainTo(rt, dispatched));
  rt.Shutdown();

  const RuntimeStats stats = rt.Stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.failover_failures, 1u);
  EXPECT_EQ(stats.totals.packets + stats.totals.drops +
                stats.steer_dropped_items,
            dispatched);
}

// A replica-restore fault during the install phase (the Apply fan-out that
// propagates the new image to the replicas) abandons the epoch — counted,
// not installed — and the next epoch succeeds.
TEST_F(CkptRuntimeTest, InjectedReplicaFaultAbandonsEpoch) {
  Runtime rt(CkptConfigFor(2), NatStage());
  rt.Start();

  // First epoch constructs the replicated state (no replica restore runs
  // yet); the injected fault targets the propagation of the second.
  ASSERT_TRUE(rt.CheckpointLive());
  FaultInjector::Global().ArmProbability("ckpt.replica_restore", 1.0);
  EXPECT_FALSE(rt.CheckpointLive());
  EXPECT_EQ(rt.Stats().ckpt_epochs, 1u);
  EXPECT_EQ(rt.Stats().ckpt_epoch_failures, 1u);

  FaultInjector::Global().Reset();
  EXPECT_TRUE(rt.CheckpointLive());
  rt.Shutdown();
  EXPECT_EQ(rt.Stats().ckpt_epochs, 2u);
}

// Failover before any successful checkpoint has nothing to resync from:
// refused and counted, runtime untouched.
TEST_F(CkptRuntimeTest, FailoverWithoutSnapshotIsRefused) {
  Runtime rt(CkptConfigFor(2), NatStage());
  rt.Start();
  EXPECT_FALSE(rt.FailoverWorker(1));
  rt.Shutdown();
  EXPECT_EQ(rt.Stats().failover_failures, 1u);
  EXPECT_EQ(rt.Stats().failovers, 0u);
}

}  // namespace
}  // namespace net
