// E11 / multi-core scaling — net::Runtime sharded execution.
//
// The paper's Figure-2 story is single-threaded: remote invocations cost a
// small, flat constant. The NetBricks deployment model the paper inherits
// runs one pipeline replica per core with RSS pinning each flow to one
// core, so the system-level claim is "aggregate throughput scales with
// cores". This bench sweeps worker counts over the E1 null-filter pipeline
// and the Maglev NF, every stage in its own protection domain, and reports:
//
//   * aggregate throughput (packets per million cycles) per worker count,
//   * scaling factor relative to 1 worker,
//   * per-batch pipeline cycles (p50 of the runtime's batch histogram),
//   * RSS load balance across shards (uniform and Zipf-skewed flows).
//
// The per-crossing cost itself is bench_fig2_isolation's crossing_hist_p50.
// Shape expectations: throughput grows with workers as long as the host has
// cores to back them (the header prints the host's concurrency so a flat
// curve on a 1-core container is interpretable).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/maglev.h"
#include "src/net/operators/maglev_op.h"
#include "src/net/operators/null_filter.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/obs/trace.h"
#include "src/util/bench_json.h"
#include "src/util/cycles.h"

namespace {

constexpr std::size_t kBatchSize = 32;
const int kBatches =
    util::BenchQuickMode() ? 2000 : 20000;  // per configuration
constexpr std::size_t kNullStages = 5;

util::BenchReport* g_report = nullptr;

std::vector<net::StageSpec> NullFilterSpec() {
  std::vector<net::StageSpec> spec;
  for (std::size_t i = 0; i < kNullStages; ++i) {
    spec.push_back({"null-" + std::to_string(i), [](std::size_t) {
                      return std::make_unique<net::NullFilter>();
                    }});
  }
  return spec;
}

std::vector<net::StageSpec> MaglevSpec() {
  std::vector<net::StageSpec> spec;
  spec.push_back({"maglev", [](std::size_t) {
                    std::vector<std::string> names;
                    std::vector<std::uint32_t> ips;
                    for (int i = 0; i < 16; ++i) {
                      names.push_back("backend-" + std::to_string(i));
                      ips.push_back(0xc0a80100u +
                                    static_cast<std::uint32_t>(i));
                    }
                    return std::make_unique<net::MaglevLb>(
                        net::Maglev(names, 65537), ips);
                  }});
  return spec;
}

struct RunResult {
  double cycles = 0;         // wall cycles, Start..drained
  std::uint64_t packets = 0;
  net::RuntimeStats stats;
};

RunResult RunOnce(std::size_t workers, double zipf,
                  std::vector<net::StageSpec> spec,
                  net::PipelineSchedule schedule = {}) {
  net::RuntimeConfig cfg;
  cfg.workers = workers;
  cfg.queue_depth = 64;
  cfg.pool_capacity = 8192;
  cfg.schedule = std::move(schedule);
  net::Runtime rt(cfg, std::move(spec));

  net::FlowSampler sampler(1024, zipf, 42);
  net::FlowFeeder feeder(&sampler);

  rt.Start();
  const std::uint64_t begin = util::CycleStart();
  for (int i = 0; i < kBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();  // drains the queues before returning
  const std::uint64_t end = util::CycleEnd();

  RunResult r;
  r.cycles = static_cast<double>(end - begin);
  r.stats = rt.Stats();
  r.packets = r.stats.totals.packets;
  return r;
}

void SweepPipeline(const char* label, const char* label_key,
                   std::vector<net::StageSpec> (*make_spec)()) {
  std::printf("\n=== %s: %d batches x %zu pkts, sweep workers ===\n", label,
              kBatches, kBatchSize);
  std::printf("%8s %14s %9s %9s %10s\n", "workers", "cycles", "Mpkt/cyc",
              "scaling", "hwm");

  double base_cycles = 0;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const RunResult r = RunOnce(workers, 0.0, make_spec());
    if (workers == 1) {
      base_cycles = r.cycles;
    }
    const double throughput = static_cast<double>(r.packets) / r.cycles;
    const double scaling = base_cycles / r.cycles;
    std::printf("%8zu %14.0f %9.5f %8.2fx %10zu\n", workers, r.cycles,
                throughput * 1e6, scaling, r.stats.totals.queue_hwm);
    const std::string suffix =
        std::string("_") + label_key + "_w" + std::to_string(workers);
    g_report->AddScalar("scaling" + suffix, scaling);
    g_report->AddScalar("mpkt_per_mcyc" + suffix, throughput * 1e6);
    // batch_cycles comes straight from the runtime's registry histogram —
    // first use of the consistent-scrape path under real worker load.
    g_report->AddScalar("batch_cycles_p50" + suffix,
                        r.stats.batch_cycles.Percentile(50.0));
  }
}

// Zipf-skewed load for the traced run below: the main thread dispatches,
// so flow tracks span it and the workers.
RunResult RunZipf(std::size_t workers, std::uint64_t bursts,
                  std::vector<net::StageSpec> spec) {
  net::RuntimeConfig cfg;
  cfg.workers = workers;
  cfg.queue_depth = 48;  // ring backpressure bounds each worker's backlog
  cfg.pool_capacity = 8192;
  net::Runtime rt(cfg, std::move(spec));

  net::FlowSampler sampler(64, 1.0, 42);
  net::FlowFeeder feeder(&sampler);

  rt.Start();
  const std::uint64_t begin = util::CycleStart();
  for (std::uint64_t i = 0; i < bursts; ++i) {
    rt.Dispatch(feeder.Next(kBatchSize));
  }
  rt.Shutdown();
  const std::uint64_t end = util::CycleEnd();

  RunResult r;
  r.cycles = static_cast<double>(end - begin);
  r.stats = rt.Stats();
  r.packets = r.stats.totals.packets;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("parallel");
  report.AddLabel("checked", util::BenchCheckedLabel());
  report.AddLabel("quick", util::BenchQuickMode() ? "1" : "0");
  g_report = &report;

  std::printf("=== bench_parallel: sharded runtime scaling ===\n");
  std::printf("host hardware concurrency: %u threads "
              "(scaling flattens once workers exceed cores)\n",
              std::thread::hardware_concurrency());

  SweepPipeline("E1 null-filter x5", "null5", &NullFilterSpec);
  SweepPipeline("Maglev LB", "maglev", &MaglevSpec);

  std::printf("\n=== RSS shard balance, 4 workers, Maglev ===\n");
  for (double zipf : {0.0, 1.0}) {
    const RunResult r = RunOnce(4, zipf, MaglevSpec());
    std::printf("zipf_s=%.1f  %s\n", zipf, r.stats.Summary().c_str());
    const std::string suffix = zipf > 0 ? "_zipf" : "_uniform";
    report.AddSamples("packets_per_worker" + suffix,
                      r.stats.packets_per_worker);
  }

  // Fused vs interpreted through the full sharded runtime: the same 5-stage
  // null-filter chain, 1 worker (so the comparison is pure per-batch cost,
  // no scheduling luck), interpreted (5 domains, 5 crossings/batch) against
  // Fuse(0, 4) (1 domain, 1 crossing/batch). Interleaved best-of reps: a
  // single pair is at the mercy of scheduler noise, interleaving keeps slow
  // drift from biasing one arm, and since preemption noise is strictly
  // additive, the minimum is the lowest-variance estimator of each arm's
  // true cost. The speedup scalar is the CI floor: fusing co-trusted stages
  // must never cost throughput — >=1.0, and on a quiet host roughly
  // 1 + 4*crossing/work.
  std::printf("\n=== fused vs interpreted schedule, 1 worker, null x%zu ===\n",
              kNullStages);
  {
    constexpr int kFuseReps = 5;
    std::vector<double> fuse_arm_cycles[2];
    std::vector<double> fuse_batch_p50[2];
    for (int rep = 0; rep < kFuseReps; ++rep) {
      for (int fused = 0; fused < 2; ++fused) {
        net::PipelineSchedule schedule;
        if (fused) {
          schedule.Fuse(0, kNullStages - 1);
        }
        RunResult r = RunOnce(1, 0.0, NullFilterSpec(), std::move(schedule));
        if (rep == 0) {
          std::printf("schedule=%s  %s\n", fused ? "fused" : "interpreted",
                      r.stats.Summary().c_str());
        }
        fuse_arm_cycles[fused].push_back(r.cycles);
        fuse_batch_p50[fused].push_back(r.stats.batch_cycles.Percentile(50.0));
      }
    }
    const double interp_best = *std::min_element(fuse_arm_cycles[0].begin(),
                                                 fuse_arm_cycles[0].end());
    const double fused_best = *std::min_element(fuse_arm_cycles[1].begin(),
                                                fuse_arm_cycles[1].end());
    const double interp_p50 = *std::min_element(fuse_batch_p50[0].begin(),
                                                fuse_batch_p50[0].end());
    const double fused_p50 = *std::min_element(fuse_batch_p50[1].begin(),
                                               fuse_batch_p50[1].end());
    report.AddScalar("interpreted_runtime_cycles_best", interp_best);
    report.AddScalar("fused_runtime_cycles_best", fused_best);
    report.AddScalar("fused_batch_cycles_p50", fused_p50);
    report.AddScalar("interpreted_batch_cycles_p50", interp_p50);
    report.AddScalar("fused_wall_speedup", interp_best / fused_best);
    // The gated speedup is worker-side per-batch cost (the registry
    // batch_cycles histogram), not wall cycles: a 1-worker run's wall clock
    // is dispatch-bound, so the 5-crossings-to-1 saving would drown in
    // producer overhead and the >=1.0 floor would gate on noise. Best-of
    // across reps per arm — preemption only ever inflates a p50.
    report.AddScalar("fused_vs_interpreted_speedup", interp_p50 / fused_p50);
    std::printf("fused batch p50: interpreted=%.0f fused=%.0f cyc -> "
                "speedup %.3fx (wall %.3fx, best of %d)\n",
                interp_p50, fused_p50, interp_p50 / fused_p50,
                interp_best / fused_best, kFuseReps);
  }

  // Optional traced run (argv[1] = output path): Zipf traffic plus a flaky
  // replica on the hot home, with the tracer armed. The exported trace must
  // satisfy `trace_lint --flow-check` — at least one flow's async track
  // spanning the main thread, a worker, and a recovery.
  if (argc > 1) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Arm(/*ring_capacity=*/1 << 16);
    tracer.SetThreadName("bench-driver");
    std::vector<net::StageSpec> spec = MaglevSpec();
    spec.push_back({"flaky", [](std::size_t worker) {
                      return std::make_unique<net::NullFilter>(
                          worker == 0 ? 31 : 0);
                    }});
    const RunResult r = RunZipf(4, 500, std::move(spec));
    if (tracer.WriteChromeJson(argv[1])) {
      std::printf("\ntrace: %s (faults=%" PRIu64 ")\n", argv[1],
                  r.stats.totals.faults);
    }
    tracer.Disarm();
  }

  std::printf("\npaper reference: aggregate throughput should scale with "
              "workers (given cores); the per-crossing cost (Figure 2, "
              "90..122 cyc/call) is bench_fig2_isolation's "
              "crossing_hist_p50.\n");
  report.WriteFile();
  return 0;
}
