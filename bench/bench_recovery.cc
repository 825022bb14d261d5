// E2 — fault-recovery cost (§3): "we measure the cost of recovery by
// simulating a panic in the null-filter and measuring the time it takes to
// catch it, clean up the old domain, and create a new one. The recovery took
// 4389 cycles on average."
//
// The measured region spans exactly the paper's three phases: the panic is
// raised inside the isolated stage (unwinding to the domain entry point and
// converting to an error), the reference table is cleared, and the recovery
// function re-instantiates the filter and re-publishes its rref.
//
// A second phase measures *observed* MTTR on the multi-core runtime under a
// seeded 1% injection storm: cycles from a worker observing a stage fault to
// the first successful batch through the recovered stage. The worker
// recovers the stage before it pops its next batch, so MTTR is the recovery
// plus the wait for that next batch — the number an operator actually
// experiences. The phase fails unless every dispatched packet is delivered
// or counted dropped and every fault is recovered by Shutdown.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/net/mempool.h"
#include "src/net/operators/null_filter.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/sfi/manager.h"
#include "src/util/bench_json.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/stats.h"

namespace {

const int kWarmup = util::BenchQuickMode() ? 25 : 100;
const int kRounds = util::BenchQuickMode() ? 300 : 2000;
const int kStormBatches = util::BenchQuickMode() ? 600 : 3000;

// Phase 2: runtime-level MTTR under a seeded storm.
int RunStormPhase(util::BenchReport& report) {
  auto& inj = util::FaultInjector::Global();
  inj.Reset();
  inj.Seed(99);
  inj.ArmProbability("op.null_filter", 0.01);

  net::RuntimeConfig cfg;
  cfg.workers = 4;
  cfg.queue_depth = 32;
  std::vector<net::StageSpec> spec;
  spec.push_back({"null", [](std::size_t) {
                    return std::make_unique<net::NullFilter>();
                  }});
  net::Runtime rt(cfg, spec);
  rt.Start();

  net::FlowSampler sampler(256, 0.0, 99);
  net::FlowFeeder feeder(&sampler);
  std::uint64_t dispatched = 0;
  for (int i = 0; i < kStormBatches; ++i) {
    dispatched += rt.Dispatch(feeder.Next(16)) ? 16 : 0;
  }
  rt.Shutdown();
  inj.Reset();

  const net::RuntimeStats stats = rt.Stats();
  if (stats.stages.empty()) {
    std::fprintf(stderr, "no stage telemetry\n");
    return 1;
  }
  const net::StageTelemetry& stage = stats.stages[0];
  std::printf("\n=== E2b: observed MTTR, multi-core runtime (cycles) ===\n");
  std::printf("storm: %d batches x 16 pkts over %zu workers, 1%% injection "
              "at op.null_filter (seed 99)\n",
              kStormBatches, cfg.workers);
  std::printf("faults / recoveries      : %llu / %llu\n",
              static_cast<unsigned long long>(stage.faults),
              static_cast<unsigned long long>(stage.recoveries));
  if (stage.mttr_cycles.empty()) {
    std::fprintf(stderr, "storm produced no MTTR samples\n");
    return 1;
  }
  std::printf("fault -> first good batch: %s\n",
              stage.mttr_cycles.Summary().c_str());
  std::printf("packet conservation      : %llu delivered + %llu dropped "
              "of %llu dispatched\n",
              static_cast<unsigned long long>(stats.totals.packets),
              static_cast<unsigned long long>(stats.totals.drops),
              static_cast<unsigned long long>(dispatched));
  report.AddScalar("storm_faults", static_cast<double>(stage.faults));
  report.AddScalar("storm_recoveries", static_cast<double>(stage.recoveries));
  report.AddSamples("storm_mttr_cycles", stage.mttr_cycles);
  report.AddSamples("storm_packets_per_worker", stats.packets_per_worker);
  if (stats.totals.faults == 0) {
    std::fprintf(stderr, "storm fired no fault\n");
    return 1;
  }
  if (stats.totals.packets + stats.totals.drops != dispatched) {
    std::fprintf(stderr, "packets lost: delivered + dropped != dispatched\n");
    return 1;
  }
  if (stage.recoveries != stage.faults) {
    std::fprintf(stderr, "a fault was left unrecovered at Shutdown\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  util::BenchReport report("recovery");
  report.AddLabel("checked", util::BenchCheckedLabel());
  report.AddLabel("quick", util::BenchQuickMode() ? "1" : "0");
  net::Mempool pool(1024, 2048);
  net::PktSourceConfig cfg;
  cfg.flow_count = 256;
  cfg.seed = 7;
  net::PktSource source(&pool, cfg);

  sfi::DomainManager mgr;
  net::IsolatedPipeline pipe(&mgr);
  // fault_every_n=1: every batch panics, so each round exercises the full
  // catch -> clean up -> re-create path.
  pipe.AddStage("faulty", [] {
    return std::make_unique<net::NullFilter>(/*fault_every_n=*/1);
  });

  util::Samples fault_to_error(kRounds);
  util::Samples recovery(kRounds);
  util::Samples total(kRounds);

  for (int round = 0; round < kWarmup + kRounds; ++round) {
    net::PacketBatch batch(8);
    source.RxBurst(batch, 8);

    const std::uint64_t begin = util::CycleStart();
    auto result = pipe.Run(std::move(batch));
    const std::uint64_t caught = util::CycleEnd();
    if (result.ok()) {
      std::fprintf(stderr, "unexpected success — fault injection broken\n");
      return 1;
    }
    const std::size_t recovered = pipe.RecoverFailedStages();
    const std::uint64_t done = util::CycleEnd();
    if (recovered != 1) {
      std::fprintf(stderr, "expected exactly one failed stage\n");
      return 1;
    }
    if (round >= kWarmup) {
      fault_to_error.Add(static_cast<double>(caught - begin));
      recovery.Add(static_cast<double>(done - caught));
      total.Add(static_cast<double>(done - begin));
    }
  }

  std::printf("=== E2: fault recovery cost (cycles) ===\n");
  std::printf("panic -> error at caller : %s\n",
              fault_to_error.Summary().c_str());
  std::printf("clear table + re-create  : %s\n", recovery.Summary().c_str());
  std::printf("end-to-end               : %s\n", total.Summary().c_str());
  std::printf("\npaper reference: 4389 cycles on average (catch + clean up "
              "old domain + create new one)\n");
  const sfi::DomainStats stats = mgr.AggregateStats();
  std::printf("sanity: faults=%llu recoveries=%llu\n",
              static_cast<unsigned long long>(stats.faults),
              static_cast<unsigned long long>(stats.recoveries));
  report.AddSamples("fault_to_error_cycles", fault_to_error);
  report.AddSamples("recovery_cycles", recovery);
  report.AddSamples("end_to_end_cycles", total);
  const int rc = RunStormPhase(report);
  report.WriteFile();
  return rc;
}
