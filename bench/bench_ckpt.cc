// E8 / Figure 3 — checkpointing the firewall rule trie.
//
// Sweep: R distinct rules, each shared by A trie leaves. Three traversals:
//   linear-mark : the paper's Rc-flag design — one copy per rule, O(1) dedup
//   address-set : conventional visited-set — same output, hash per node
//   naive       : no dedup — R*A copies, sharing lost on restore
//
// Reported: cycles per checkpoint, payload copies, snapshot bytes, and the
// restore-correctness column (distinct rules after restore).
// A second phase benchmarks the *runtime* checkpoint path: live epochs over
// a running net::Runtime while a producer thread dispatches, reporting the
// per-worker capture pause (each capture holds its worker's pipeline lock)
// and the cost of one forced failover resync. The process exits non-zero
// unless that phase delivers or counts every dispatched packet, lands every
// epoch it asks for, and lands the failover.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/trie.h"
#include "src/net/operators/nat.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/util/bench_json.h"
#include "src/util/cycles.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace {

const int kWarmup = util::BenchQuickMode() ? 2 : 5;
const int kRounds = util::BenchQuickMode() ? 10 : 50;

ckpt::RuleTrie BuildTrie(std::size_t rules, std::size_t aliases,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  ckpt::RuleTrie trie;
  for (std::size_t r = 0; r < rules; ++r) {
    ckpt::FwRule rule;
    rule.id = r;
    rule.allow = rng.Chance(0.5);
    rule.dst_port_lo = static_cast<std::uint16_t>(rng.Below(1000));
    rule.dst_port_hi = static_cast<std::uint16_t>(
        rule.dst_port_lo + rng.Below(1000));
    ckpt::RulePtr shared = ckpt::RulePtr::Make(rule);
    for (std::size_t a = 0; a < aliases; ++a) {
      // Distinct random /24 prefixes so each alias gets its own leaf.
      trie.Insert(rng.NextU32() & 0xffffff00u, 24, shared);
    }
  }
  return trie;
}

struct Row {
  double cycles = 0;
  std::uint64_t copies = 0;
  std::size_t bytes = 0;
  std::size_t distinct_after_restore = 0;
};

constexpr ckpt::DedupMode kModes[] = {ckpt::DedupMode::kLinearMark,
                                      ckpt::DedupMode::kAddressSet,
                                      ckpt::DedupMode::kNone};
constexpr std::size_t kArms = std::size(kModes);

// Times the three arms on one trie round-robin: every round, warm-ups
// included, checkpoints once in each mode and rotates which mode goes
// first, so cache state and clock drift fall on all three alike (run back
// to back, linear-mark, always first, read 2.3x address-set at 16 rules x
// 16 aliases).
std::array<Row, kArms> MeasureModes(const ckpt::RuleTrie& trie) {
  std::array<Row, kArms> rows;
  std::array<util::Samples, kArms> samples;
  std::array<ckpt::Snapshot, kArms> last;
  for (int round = 0; round < kWarmup + kRounds; ++round) {
    for (std::size_t k = 0; k < kArms; ++k) {
      const std::size_t m = (static_cast<std::size_t>(round) + k) % kArms;
      ckpt::CheckpointStats stats;
      const std::uint64_t begin = util::CycleStart();
      ckpt::Snapshot snap = ckpt::Checkpoint(trie, kModes[m], &stats);
      const std::uint64_t end = util::CycleEnd();
      if (round >= kWarmup) {
        samples[m].Add(static_cast<double>(end - begin));
      }
      rows[m].copies = stats.payload_copies;
      rows[m].bytes = snap.size_bytes();
      last[m] = std::move(snap);
    }
  }
  for (std::size_t m = 0; m < kArms; ++m) {
    rows[m].cycles = samples[m].TrimmedMean();
    rows[m].distinct_after_restore =
        ckpt::Restore<ckpt::RuleTrie>(last[m]).DistinctRuleCount();
  }
  return rows;
}

// Live-runtime checkpoint phase: epochs against real traffic. The headline
// numbers are the pause a worker pays to capture (dispatch never stops; the
// queues absorb it) and the one-off cost of a failover resync. Quick mode
// takes 32 epochs x 4 workers = 128 pause samples, so the p99 is not simply
// the largest sample. The producer keeps dispatching until the last epoch
// and the failover are done, so every sample is taken under traffic.
// Returns the process exit status.
int RunRuntimeCkptPhase(util::BenchReport& report) {
  const std::uint64_t kEpochs = util::BenchQuickMode() ? 32 : 128;

  constexpr std::size_t kBurst = 16;

  net::RuntimeConfig cfg;
  cfg.workers = 4;
  cfg.queue_depth = 48;  // ring backpressure bounds each worker's backlog
  cfg.ckpt.enabled = true;
  std::vector<net::StageSpec> spec;
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<net::NatRewrite>(0x0a000001);
                  }});
  net::Runtime rt(cfg, std::move(spec));
  rt.Start();

  net::FlowSampler sampler(256, 0.0, 97);
  net::FlowFeeder feeder(&sampler);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dispatched{0};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.Dispatch(feeder.Next(kBurst))) {
        dispatched.fetch_add(kBurst, std::memory_order_relaxed);
      }
    }
  });
  while (dispatched.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();  // the first epoch already meets traffic
  }

  std::uint64_t epochs = 0;
  for (std::uint64_t i = 0; i < kEpochs * 4 && epochs < kEpochs; ++i) {
    if (rt.CheckpointLive()) {
      ++epochs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool failed_over = false;
  for (int i = 0; i < 200 && !failed_over; ++i) {
    failed_over = rt.FailoverWorker(1);
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  rt.Shutdown();

  const net::RuntimeStats stats = rt.Stats();
  const double pause_p99 = stats.ckpt_pause_cycles.empty()
                               ? 0.0
                               : stats.ckpt_pause_cycles.Percentile(99.0);
  const double pause_p50 = stats.ckpt_pause_cycles.empty()
                               ? 0.0
                               : stats.ckpt_pause_cycles.Percentile(50.0);
  const double resync =
      stats.failover_resync_cycles.count == 0
          ? 0.0
          : static_cast<double>(stats.failover_resync_cycles.sum) /
                static_cast<double>(stats.failover_resync_cycles.count);

  std::printf(
      "\n=== runtime live checkpoint: %llu epochs over %zu workers under "
      "traffic ===\n",
      static_cast<unsigned long long>(stats.ckpt_epochs), cfg.workers);
  std::printf(
      "  pause/worker: p50=%.0f p99=%.0f cycles (n=%llu)  "
      "failover_resync=%.0f cycles  epoch_failures=%llu\n",
      pause_p50, pause_p99,
      static_cast<unsigned long long>(stats.ckpt_pause_cycles.count), resync,
      static_cast<unsigned long long>(stats.ckpt_epoch_failures));
  const std::uint64_t sent = dispatched.load();
  const bool conserved = stats.totals.packets + stats.totals.drops +
                             stats.steer_dropped_items ==
                         sent;
  std::printf(
      "  exactly-once: dispatched=%llu delivered=%llu drops=%llu "
      "(conserved=%s)\n",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(stats.totals.packets),
      static_cast<unsigned long long>(stats.totals.drops +
                                      stats.steer_dropped_items),
      conserved ? "yes" : "NO");

  // Client-visible SLO while epochs + the forced failover fire: p99 of
  // dispatch-to-delivery latency across the whole phase. This is the number
  // the paper's resilience story owes its clients — pause cycles say what
  // the *worker* paid, this says what the *traffic* saw.
  const double slo_p99 =
      stats.delivery_latency_cycles.count == 0
          ? 0.0
          : stats.delivery_latency_cycles.Percentile(99.0);
  std::printf("  delivery slo: p99=%.0f cycles (n=%llu)\n", slo_p99,
              static_cast<unsigned long long>(
                  stats.delivery_latency_cycles.count));

  // Decomposition of the same SLO ("where did the p99 go"): per-component
  // tail of the additive queue/service/fence split. Quantiles are not
  // additive, so these bound which phase dominates the tail rather than
  // summing to slo_p99 — under a checkpoint storm the fence component is
  // the one to watch.
  const double queue_p99 = stats.latency_queue_cycles.Percentile(99.0);
  const double service_p99 = stats.latency_service_cycles.Percentile(99.0);
  const double fence_p99 = stats.latency_fence_cycles.Percentile(99.0);
  std::printf(
      "  slo decomposition p99: queue=%.0f service=%.0f fence=%.0f cycles\n",
      queue_p99, service_p99, fence_p99);
  // Fewer than 1% of batches wait for a pipeline lock, so the fence p99 is
  // the interpolated top of the zero bucket and cannot move. Its exact mean
  // and the share of batches that waited at all can.
  const obs::HistogramSnapshot& fence = stats.latency_fence_cycles;
  const double fence_mean = fence.Mean();
  const double fence_frac =
      fence.count == 0 ? 0.0
                       : 1.0 - static_cast<double>(fence.buckets[0]) /
                                   static_cast<double>(fence.count);
  std::printf("  fence: mean=%.1f cycles, batches that waited=%.4f\n",
              fence_mean, fence_frac);

  report.AddScalar("ckpt_pause_p99_cycles", pause_p99);
  report.AddScalar("ckpt_pause_p50_cycles", pause_p50);
  report.AddScalar("failover_resync_cycles", resync);
  report.AddScalar("ckpt_slo_p99_cycles", slo_p99);
  report.AddScalar("ckpt_latency_queue_p99_cycles", queue_p99);
  report.AddScalar("ckpt_latency_service_p99_cycles", service_p99);
  report.AddScalar("ckpt_latency_fence_mean_cycles", fence_mean);
  report.AddScalar("ckpt_fence_batch_frac", fence_frac);
  report.AddScalar("runtime_ckpt_epochs",
                   static_cast<double>(stats.ckpt_epochs));
  if (!conserved) {
    std::fprintf(stderr, "packets lost: delivered + dropped != dispatched\n");
    return 1;
  }
  if (epochs < kEpochs) {
    std::fprintf(stderr, "only %llu of %llu live epochs landed\n",
                 static_cast<unsigned long long>(epochs),
                 static_cast<unsigned long long>(kEpochs));
    return 1;
  }
  if (!failed_over) {
    std::fprintf(stderr, "the forced failover never landed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  util::BenchReport report("ckpt");
  report.AddLabel("checked", util::BenchCheckedLabel());
  report.AddLabel("quick", util::BenchQuickMode() ? "1" : "0");
  std::printf("=== E8 / Figure 3: checkpointing a firewall rule trie ===\n");
  std::printf("%7s %8s | %12s %8s %10s %9s | %12s %9s | %12s %9s %10s\n",
              "rules", "aliases", "linear(cyc)", "copies", "bytes",
              "restored", "addrset(cyc)", "vs-linear", "naive(cyc)",
              "copies", "restored");

  for (std::size_t rules : {16, 64, 256}) {
    for (std::size_t aliases : {1, 4, 16}) {
      ckpt::RuleTrie trie = BuildTrie(rules, aliases, rules * 31 + aliases);
      const auto [linear, addrset, naive] = MeasureModes(trie);

      std::printf(
          "%7zu %8zu | %12.0f %8llu %10zu %9zu | %12.0f %8.2fx | %12.0f "
          "%8llu %9zu\n",
          rules, aliases, linear.cycles,
          static_cast<unsigned long long>(linear.copies), linear.bytes,
          linear.distinct_after_restore, addrset.cycles,
          addrset.cycles / linear.cycles, naive.cycles,
          static_cast<unsigned long long>(naive.copies),
          naive.distinct_after_restore);
      const std::string suffix =
          "_r" + std::to_string(rules) + "_a" + std::to_string(aliases);
      report.AddScalar("linear_cycles" + suffix, linear.cycles);
      report.AddScalar("addrset_cycles" + suffix, addrset.cycles);
      report.AddScalar("naive_cycles" + suffix, naive.cycles);
      report.AddScalar("linear_copies" + suffix,
                       static_cast<double>(linear.copies));
      report.AddScalar("naive_copies" + suffix,
                       static_cast<double>(naive.copies));
    }
  }
  std::printf(
      "\nshape: linear copies == distinct rules regardless of aliasing; "
      "naive copies == rules*aliases and 'restored' shows the lost sharing "
      "(Figure 3b); address-set matches linear output but pays hash "
      "lookups per node\n");
  const int rc = RunRuntimeCkptPhase(report);
  report.WriteFile();
  return rc;
}
