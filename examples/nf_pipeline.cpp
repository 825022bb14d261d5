// A realistic NetBricks-style deployment (§3): DPDK-sim traffic through an
// isolated pipeline of real network functions —
//
//   firewall -> ttl-decrement -> maglev load balancer -> source NAT
//
// each in its own protection domain, with a flaky firewall that panics
// periodically. The supervisor loop recovers failed stages transparently;
// the run ends with throughput and isolation statistics.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/maglev.h"
#include "src/net/mempool.h"
#include "src/net/operators/firewall.h"
#include "src/net/operators/maglev_op.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/operators/ttl.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/net/schedule.h"
#include "src/obs/metrics.h"
#include "src/obs/ops_server.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/sfi/manager.h"
#include "src/util/cycles.h"
#include "src/util/panic.h"

namespace {

// A firewall that periodically hits an injected bug, standing in for the
// untrusted third-party NF the paper wants to contain.
class FlakyFirewall : public net::Operator {
 public:
  FlakyFirewall() {
    net::FirewallRule block;
    block.src_prefix = 0x0a800000;  // block 10.128/9: half the clients
    block.src_prefix_len = 9;
    block.allow = false;
    inner_ = std::make_unique<net::FirewallNf>(
        std::vector<net::FirewallRule>{block}, /*default_allow=*/true);
  }

  net::PacketBatch Process(net::PacketBatch batch) override {
    if (++batches_ % 97 == 0) {
      util::Panic(util::PanicKind::kBoundsCheck,
                  "firewall rule parser bug (injected)");
    }
    return inner_->Process(std::move(batch));
  }
  std::string_view name() const override { return "flaky-firewall"; }

 private:
  std::unique_ptr<net::FirewallNf> inner_;
  std::uint64_t batches_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kBatch = 32;
  constexpr int kRounds = 5000;

  // --ops PATH serves the live scrape endpoints (/metrics, /metrics/delta,
  // /trace, /profile, /healthz) on a unix socket while the pipeline runs;
  // --serve-ms N keeps traffic flowing for N extra milliseconds so an
  // external obs_scrape can watch the run live — /profile?ms=N returns
  // folded stacks naming the pipeline stage each sampled tick landed in.
  // The server here runs standalone over the process-global
  // registry/tracer/profiler — no net::Runtime involved — which is the
  // hook shape any long-running service in this codebase can reuse.
  std::string ops_path;
  int serve_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ops" && i + 1 < argc) {
      ops_path = argv[++i];
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      serve_ms = std::atoi(argv[++i]);
    }
  }
  std::unique_ptr<obs::OpsServer> ops;
  if (!ops_path.empty()) {
    obs::ArmMetrics(true);
    obs::Tracer::Global().Arm(/*ring_capacity=*/1 << 14);
    obs::OpsServerConfig ops_cfg;
    ops_cfg.unix_path = ops_path;
    ops_cfg.slo_metric = "sfi.crossing_cycles";  // the pipeline's hot path
    obs::OpsServer::Hooks hooks;
    hooks.registry = &obs::Registry::Global();
    hooks.tracer = &obs::Tracer::Global();
    hooks.profiler = &obs::Profiler::Global();
    hooks.healthz = [] { return std::string("{\"status\":\"ok\"}"); };
    ops = std::make_unique<obs::OpsServer>(ops_cfg, hooks);
    std::string error;
    if (!ops->Start(&error)) {
      std::fprintf(stderr, "ops server failed to start: %s\n", error.c_str());
      ops.reset();
    } else {
      std::printf("serving ops on %s\n", ops_path.c_str());
    }
  }

  // The driving thread is the only on-CPU thread here; registering it lets
  // a /profile window attribute its ticks to the pipeline stages (via the
  // stage scope inside IsolatedPipeline::Run).
  obs::Profiler::Global().RegisterThisThread("pipeline");

  net::Mempool pool(4096, 2048);
  net::PktSourceConfig cfg;
  cfg.flow_count = 4096;
  cfg.zipf_s = 1.0;  // realistic skewed traffic
  cfg.seed = 2026;
  net::PktSource source(&pool, cfg);

  sfi::DomainManager manager;
  net::IsolatedPipeline pipeline(&manager);
  pipeline.AddStage("firewall", [] {
    return std::make_unique<FlakyFirewall>();
  });
  pipeline.AddStage("ttl", [] {
    return std::make_unique<net::TtlDecrement>();
  });
  pipeline.AddStage("maglev", [] {
    std::vector<std::string> names;
    std::vector<std::uint32_t> ips;
    for (int i = 0; i < 8; ++i) {
      names.push_back("backend-" + std::to_string(i));
      ips.push_back(0xc0a80100u + static_cast<std::uint32_t>(i));
    }
    return std::make_unique<net::MaglevLb>(net::Maglev(names, 65537), ips);
  });
  pipeline.AddStage("nat", [] {
    return std::make_unique<net::NatRewrite>(0xc6336401);  // 198.51.100.1
  });

  // Fuse it (--interpreted to compare): ttl, maglev, and nat are first-party
  // code that trusts each other, so they share one protection domain — one
  // remote invocation carries a batch through all three. The flaky
  // third-party firewall is pinned Isolate(0): it keeps its own domain, its
  // panics still unwind alone, and a quarantine would split only it out.
  // Per-batch crossings drop from 4 to 2 without touching any operator.
  bool interpreted = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--interpreted") {
      interpreted = true;
    }
  }
  if (!interpreted) {
    pipeline.ApplySchedule(net::ResolveSchedule(
        net::PipelineSchedule().Isolate(0).Fuse(1, 3), pipeline.length()));
  }
  std::printf("schedule: %s (%zu stages in %zu domains)\n",
              interpreted ? "interpreted" : "isolate(firewall) + fuse(ttl..nat)",
              pipeline.length(), pipeline.group_count());

  std::uint64_t delivered = 0;
  std::uint64_t dropped_batches = 0;
  std::uint64_t recoveries = 0;
  const std::uint64_t begin = util::CycleStart();

  for (int round = 0; round < kRounds; ++round) {
    net::PacketBatch batch(kBatch);
    source.RxBurst(batch, kBatch);
    obs::ScopedProfilerPhase prof(obs::ProfilerPhase::kExecute);
    auto result = pipeline.Run(std::move(batch));
    if (result.ok()) {
      delivered += result.value().size();
    } else {
      // The in-flight batch is lost (buffers reclaimed during unwinding);
      // recover the failed stage and keep forwarding. Clients never see
      // anything but one dropped batch.
      ++dropped_batches;
      recoveries += pipeline.RecoverFailedStages();
    }
  }
  // Scrape window: keep the flaky pipeline running (faults, recoveries,
  // crossings all still accumulating) so a live scraper sees moving
  // counters, not a frozen end state.
  if (serve_ms > 0) {
    const auto serve_deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(serve_ms);
    while (std::chrono::steady_clock::now() < serve_deadline) {
      net::PacketBatch batch(kBatch);
      source.RxBurst(batch, kBatch);
      obs::ScopedProfilerPhase prof(obs::ProfilerPhase::kExecute);
      auto result = pipeline.Run(std::move(batch));
      if (result.ok()) {
        delivered += result.value().size();
      } else {
        ++dropped_batches;
        recoveries += pipeline.RecoverFailedStages();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const std::uint64_t cycles = util::CycleEnd() - begin;

  const sfi::DomainStats stats = manager.AggregateStats();
  std::printf("=== isolated NF pipeline run ===\n");
  std::printf("batches: %d x %zu pkts, skewed traffic (zipf 1.0)\n", kRounds,
              kBatch);
  std::printf("delivered packets      : %llu\n",
              static_cast<unsigned long long>(delivered));
  std::printf("dropped batches        : %llu (one per contained fault)\n",
              static_cast<unsigned long long>(dropped_batches));
  std::printf("faults / recoveries    : %llu / %llu\n",
              static_cast<unsigned long long>(stats.faults),
              static_cast<unsigned long long>(recoveries));
  std::printf("remote invocations ok  : %llu\n",
              static_cast<unsigned long long>(stats.calls_ok));
  std::printf("avg cycles per packet  : %.1f\n",
              static_cast<double>(cycles) /
                  static_cast<double>(delivered ? delivered : 1));
  std::printf("pool leak check        : %zu buffers still out (expect 0)\n",
              pool.in_use());
  return pool.in_use() == 0 && delivered > 0 ? 0 : 1;
}
