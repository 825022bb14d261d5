// Fault storm: the supervised multi-core runtime under seeded fault
// injection (§3's recovery story, stress-tested).
//
// A realistic NF chain — firewall -> ttl -> maglev -> nat — runs one replica
// per worker. A fifth "tap" stage is deterministically broken on worker 0
// (it panics on every batch and its recovery is sabotaged too), standing in
// for an NF that crash-loops no matter how often it is restarted. On top of
// that, a seeded storm fires probabilistic panics inside the firewall and
// maglev operators, occasionally inside recovery functions, and every few
// thousand mempool allocations.
//
// What the run demonstrates:
//   * no injected fault — operator, recovery-fn, or allocator — ever
//     escapes a worker or the supervisor (the process finishing IS the
//     demo);
//   * transient faults are recovered under backoff and measured (MTTR);
//   * the crash-looping tap burns its retry budget, is quarantined, and its
//     kPassthrough policy lets worker 0's traffic flow around the corpse;
//   * probation keeps probing the quarantined tap; every probe fails (the
//     crash loop is deterministic) so it stays down under doubling cool-down
//     instead of flapping back into service;
//   * live checkpoint epochs complete while the storm is still firing, and a
//     forced worker failover — its first resync attempt sabotaged —
//     restores the victim's stage state from the snapshot;
//   * healthy shards never notice any of it.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/maglev.h"
#include "src/net/operators/firewall.h"
#include "src/net/operators/maglev_op.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/operators/ttl.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/fault_injector.h"

namespace {

std::vector<net::StageSpec> BuildChain() {
  std::vector<net::StageSpec> spec;
  // A firewall should fail closed: once quarantined, refuse traffic loudly.
  spec.push_back({"firewall",
                  [](std::size_t) {
                    net::FirewallRule block;
                    block.src_prefix = 0x0a800000;  // block 10.128/9
                    block.src_prefix_len = 9;
                    block.allow = false;
                    return std::make_unique<net::FirewallNf>(
                        std::vector<net::FirewallRule>{block},
                        /*default_allow=*/true);
                  },
                  net::DegradePolicy::kFailFast});
  spec.push_back({"ttl",
                  [](std::size_t) {
                    return std::make_unique<net::TtlDecrement>();
                  },
                  net::DegradePolicy::kPassthrough});
  spec.push_back({"maglev",
                  [](std::size_t) {
                    std::vector<std::string> names;
                    std::vector<std::uint32_t> ips;
                    for (int i = 0; i < 8; ++i) {
                      names.push_back("backend-" + std::to_string(i));
                      ips.push_back(0xc0a80100u +
                                    static_cast<std::uint32_t>(i));
                    }
                    return std::make_unique<net::MaglevLb>(
                        net::Maglev(names, 65537), ips);
                  },
                  net::DegradePolicy::kDrop});
  spec.push_back({"nat",
                  [](std::size_t) {
                    return std::make_unique<net::NatRewrite>(0xc6336401);
                  },
                  net::DegradePolicy::kDrop});
  // The crash-looper: worker 0's replica panics on every single batch
  // (NullFilter fault_every_n=1); every other worker's replica is clean. A
  // monitoring tap is exactly the kind of stage that may be bypassed, so
  // its degrade policy is kPassthrough.
  spec.push_back({"tap",
                  [](std::size_t worker) {
                    return std::make_unique<net::NullFilter>(
                        worker == 0 ? 1 : 0);
                  },
                  net::DegradePolicy::kPassthrough});
  return spec;
}

// One per-interval scrape of both registries (the runtime's own and the
// process-global one carrying sfi/ckpt/fault series). Printed after every
// storm phase and collected into the delta-scrape JSON artifact, so CI can
// see the fault *rates* of each phase instead of one end-of-run cumulative
// blur.
struct PhaseDelta {
  int phase;
  std::string label;
  std::string runtime_json;
  std::string global_json;
};

PhaseDelta ScrapePhase(int phase, const std::string& label,
                       net::Runtime& rt) {
  const obs::DeltaSnapshot runtime_delta = rt.registry().SnapshotDelta();
  const obs::DeltaSnapshot global_delta =
      obs::Registry::Global().SnapshotDelta();
  std::printf("\n--- delta scrape, phase %d (%s, %.3fs) ---\n", phase,
              label.c_str(), runtime_delta.interval_seconds);
  auto print_deltas = [](const char* which, const obs::DeltaSnapshot& d) {
    for (const auto& c : d.counters) {
      if (c.delta == 0) continue;
      std::printf("  %s %-34s +%llu (%.1f/s)\n", which, c.name.c_str(),
                  static_cast<unsigned long long>(c.delta), c.rate);
    }
    for (const auto& h : d.histograms) {
      if (h.delta.count == 0) continue;
      std::printf("  %s %-34s n=+%llu p50=%.0f p99=%.0f cycles\n", which,
                  h.name.c_str(),
                  static_cast<unsigned long long>(h.delta.count),
                  h.delta.Percentile(50.0), h.delta.Percentile(99.0));
    }
  };
  print_deltas("rt ", runtime_delta);
  print_deltas("glb", global_delta);
  return PhaseDelta{phase, label, runtime_delta.ToJson(),
                    global_delta.ToJson()};
}

bool WriteDeltaJson(const std::string& path,
                    const std::vector<PhaseDelta>& phases) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"phase\":" << phases[i].phase << ",\"label\":\""
        << phases[i].label << "\",\"runtime\":" << phases[i].runtime_json
        << ",\"global\":" << phases[i].global_json << '}';
  }
  out << "]}\n";
  return out.good();
}

// Blocks until the runtime's delivery and fault counters have stood still
// for a settle period once the driver stopped dispatching: no batch,
// recovery or flow track is then in flight. Gives up after a few seconds.
void Settle(net::Runtime& rt) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto moved = [](const net::RuntimeStats& a, const net::RuntimeStats& b) {
    return a.totals.batches != b.totals.batches ||
           a.totals.drops != b.totals.drops ||
           a.totals.faults != b.totals.faults ||
           a.totals.recoveries != b.totals.recoveries ||
           a.totals.recovery_panics != b.totals.recovery_panics;
  };
  net::RuntimeStats last = rt.Stats();
  int quiet_polls = 0;
  while (quiet_polls < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const net::RuntimeStats now = rt.Stats();
    quiet_polls = moved(last, now) ? 0 : quiet_polls + 1;
    last = now;
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kBatch = 16;
  constexpr int kStormBatches = 1500;

  // Optional trace path (default fault_storm_trace.json) and delta-scrape
  // artifact path (default fault_storm_delta.json). The storm and the
  // quarantine are traced: batches, faults, recoveries, and the quarantine
  // land in one chrome://tracing / Perfetto timeline, flow-correlated by
  // async tracks.
  //
  // --ops PATH serves /metrics, /metrics/delta, /trace, /profile, /healthz
  // on a unix socket while the process runs; --serve-ms N holds the storm
  // open for N extra milliseconds of live traffic so an external scraper
  // (CI's obs_scrape) can pull the endpoints mid-storm — including a
  // /profile?ms=N sampling window whose folded stacks show where the storm
  // spends its CPU (execute vs recover vs ckpt-capture).
  const char* trace_path = "fault_storm_trace.json";
  const char* delta_path = "fault_storm_delta.json";
  std::string ops_path;
  int serve_ms = 0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ops" && i + 1 < argc) {
      ops_path = argv[++i];
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      serve_ms = std::atoi(argv[++i]);
    } else if (positional == 0) {
      trace_path = argv[i];
      ++positional;
    } else if (positional == 1) {
      delta_path = argv[i];
      ++positional;
    }
  }
  obs::ArmMetrics(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  // Ring sized so a full storm's async spans survive without wraparound
  // splitting a 'b' from its 'e' (trace_lint enforces pairing).
  tracer.Arm(/*ring_capacity=*/1 << 17);
  tracer.SetThreadName("storm-driver");

  // The storm plan. Everything is seeded: rerunning the binary replays the
  // same per-site firing decisions.
  auto& inj = util::FaultInjector::Global();
  inj.Seed(2026);
  inj.ArmProbability("op.firewall", 0.01, util::PanicKind::kBoundsCheck);
  inj.ArmProbability("op.maglev", 0.005, util::PanicKind::kAssertFailed);
  inj.ArmProbability("sfi.recover", 0.25, util::PanicKind::kExplicit);
  inj.ArmEveryNth("mempool.alloc", 4001, util::PanicKind::kAssertFailed);

  net::RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 32;
  cfg.supervision.max_recovery_attempts = 6;
  cfg.supervision.watchdog_period_ms = 5;
  // Probation: the supervisor probes quarantined replicas after a cool-down.
  // The tap's crash loop is deterministic, so every probe fails and the
  // cool-down doubles — the storm proves probation can't flap a dead stage
  // back into service.
  cfg.supervision.probation_cooldown_batches = 64;
  // Live checkpointing on: the storm ends with epochs under fire plus a
  // forced failover resync.
  cfg.ckpt.enabled = true;
  if (!ops_path.empty()) {
    cfg.ops.enabled = true;
    cfg.ops.unix_path = ops_path;
  }

  net::Runtime rt(cfg, BuildChain());
  rt.Start();

  // Baseline both delta clocks right before the storm so phase 1's interval
  // covers the storm itself, not runtime construction.
  (void)rt.registry().SnapshotDelta();
  (void)obs::Registry::Global().SnapshotDelta();
  std::vector<PhaseDelta> phase_deltas;

  net::FlowSampler sampler(512, /*zipf_s=*/1.0, /*seed=*/2026);
  net::FlowFeeder feeder(&sampler);
  for (int i = 0; i < kStormBatches; ++i) {
    rt.Dispatch(feeder.Next(kBatch));
    if (i % 100 == 0) {
      // Give the supervisor air: the crash-looping tap needs recovery
      // passes (not just offered load) to burn through its retry budget.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  phase_deltas.push_back(ScrapePhase(1, "storm", rt));

  // Keep dispatching until worker 0's tap is quarantined (bounded wait —
  // with a 6-attempt budget this resolves in a few supervisor passes).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.Stats().totals.quarantined == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    rt.Dispatch(feeder.Next(kBatch));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase_deltas.push_back(ScrapePhase(2, "quarantine", rt));

  // The trace is written here, at rest, before the serve window: a live
  // /trace scrape disarms the tracer while it exports, and a flow track open
  // across that window loses its events in every later export, which would
  // break trace_lint's b/e pairing. The storm and quarantine phases hold the
  // cross-thread recovery tracks its --flow-check gate looks for.
  Settle(rt);
  {
    // Drain, not Export: workers and the supervisor are idle but alive.
    const std::string trace = tracer.DrainChromeJson();
    std::ofstream out(trace_path);
    out << trace;
    if (out.good()) {
      std::printf("\ntrace: %s (%zu bytes, storm and quarantine phases)\n",
                  trace_path, trace.size());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
    }
  }

  // Scrape window: hold the storm open — injectors still armed, live
  // checkpoint epochs still firing — so an external obs_scrape can pull
  // /metrics, /metrics/delta, /trace, /profile, and /healthz from a process
  // that is genuinely mid-storm, not idling.
  if (serve_ms > 0) {
    std::printf("\nserving ops on %s for %d ms (storm still firing)\n",
                ops_path.empty() ? "<no socket>" : ops_path.c_str(),
                serve_ms);
    const auto serve_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(serve_ms);
    int tick = 0;
    while (std::chrono::steady_clock::now() < serve_deadline) {
      rt.Dispatch(feeder.Next(kBatch));
      if (++tick % 200 == 0) {
        (void)rt.CheckpointLive();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Checkpoint/failover storm: with the injectors still armed, drive live
  // checkpoint epochs against the degraded runtime (quarantined tap and
  // all), then kill worker 1 and resync it from the last snapshot. The
  // first failover attempt is sabotaged with a one-shot fault to show a
  // failed resync is a contained, retryable refusal — not an abort.
  std::uint64_t live_epochs = 0;
  for (int i = 0; i < 600 && live_epochs < 3; ++i) {
    rt.Dispatch(feeder.Next(kBatch));
    if (i % 50 == 49 && rt.CheckpointLive()) {
      ++live_epochs;
    }
  }
  inj.ArmOneShot("ckpt.failover_resync", util::PanicKind::kExplicit);
  bool failed_over = false;
  for (int i = 0; i < 100 && !failed_over; ++i) {
    failed_over = rt.FailoverWorker(1);
  }
  phase_deltas.push_back(ScrapePhase(3, "ckpt_failover", rt));

  // Calm after the storm: disarm everything and prove the degraded runtime
  // still forwards on every shard, including past the quarantined tap.
  inj.Reset();
  for (int i = 0; i < 200; ++i) {
    rt.Dispatch(feeder.Next(kBatch));
  }
  rt.Shutdown();
  phase_deltas.push_back(ScrapePhase(4, "calm", rt));

  const net::RuntimeStats stats = rt.Stats();
  std::printf("=== fault storm report ===\n%s\n", stats.Summary().c_str());

  // Machine-readable outputs: the runtime registry scrape (plus the
  // process-global sfi/fault counters) and the per-phase delta scrapes.
  std::printf("\n--- metrics scrape (prometheus text) ---\n%s",
              rt.ScrapePrometheus().c_str());
  std::printf("%s", obs::Registry::Global().Scrape().ToPrometheus().c_str());
  if (WriteDeltaJson(delta_path, phase_deltas)) {
    std::printf("delta scrapes: %s (%zu phases)\n", delta_path,
                phase_deltas.size());
  } else {
    std::fprintf(stderr, "failed to write delta scrapes to %s\n", delta_path);
  }

  std::printf("\n--- degradation report ---\n");
  for (const net::StageTelemetry& st : stats.stages) {
    std::printf("stage %-9s policy=%-11s quarantined=%zu/%zu faults=%llu "
                "recoveries=%llu recovery_panics=%llu\n",
                st.name.c_str(),
                std::string(net::DegradePolicyName(st.policy)).c_str(),
                st.quarantined_replicas, kWorkers,
                static_cast<unsigned long long>(st.faults),
                static_cast<unsigned long long>(st.recoveries),
                static_cast<unsigned long long>(st.recovery_panics));
    if (!st.mttr_cycles.empty()) {
      std::printf("          mttr_cycles: %s\n",
                  st.mttr_cycles.Summary().c_str());
    }
  }

  // The report doubles as the acceptance check: the storm fired, nothing
  // aborted the process (we are here), the crash-looper was quarantined,
  // at least one live checkpoint epoch and one failover resync completed
  // under fire, and every shard kept forwarding.
  bool ok = stats.totals.faults > 0;
  ok = ok && stats.totals.quarantined >= 1;
  ok = ok && stats.ckpt_epochs >= 1;
  ok = ok && stats.failovers >= 1;
  for (const net::WorkerTelemetry& w : stats.workers) {
    ok = ok && w.packets > 0;
  }
  std::printf("\nstorm absorbed: %s (faults=%llu recoveries=%llu "
              "quarantined=%zu ckpt_epochs=%llu failovers=%llu "
              "failover_failures=%llu requarantines=%llu)\n",
              ok ? "yes" : "NO",
              static_cast<unsigned long long>(stats.totals.faults),
              static_cast<unsigned long long>(stats.totals.recoveries),
              stats.totals.quarantined,
              static_cast<unsigned long long>(stats.ckpt_epochs),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.failover_failures),
              static_cast<unsigned long long>(stats.requarantines));
  return ok ? 0 : 1;
}
