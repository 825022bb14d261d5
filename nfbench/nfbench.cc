// End-to-end NF benchmark. One workload per invocation:
//
//   nfbench --workload fwd64|mbox_ckpt|trie_ckpt --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with every stage wrapped in a timing operator, and
// reports the per-layer metrics plus the tracing overhead. Human-readable
// lines come first; the last line of stdout is one JSON object. The exit
// code is non-zero when any output check fails. README.md explains the
// workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nfbench_lib.h"
#include "report.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/trie.h"
#include "src/net/maglev.h"
#include "src/net/operators/conntrack.h"
#include "src/net/operators/firewall.h"
#include "src/net/operators/nat.h"
#include "src/net/operators/null_filter.h"
#include "src/net/operators/ttl.h"
#include "src/net/runtime.h"
#include "src/util/rng.h"
#include "stages.h"
#include "workload.h"

namespace nfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr int kSetupReps = 7;
constexpr auto kCkptPeriod = std::chrono::milliseconds(100);
constexpr std::int64_t kSettleWindows = 5;
constexpr double kTrieLayerSeconds = 2;

struct NfSpec {
  std::string name;
  std::size_t flows = 0;
  double zipf = 0;            // 0 = uniform
  bool mbox = false;          // firewall, ttl, conntrack, nat; live checkpoints
  double open_rate_pps = 0;   // open-loop offered rate
  std::size_t warm_passes = 0;  // warm-up sends every flow this many times
};

const NfSpec kFwd64{"fwd64", 4096, 0.0, false, 2.0e6, 16};
const NfSpec kMbox{"mbox_ckpt", 32768, 1.0, true, 0.5e6, 2};

// The process's peak resident set so far, in MB. peak_rss_mb is its rise
// from a point where the benchmark's own tables and logs are resident to the
// end of the measured program's life, so it is the program's own memory.
double MaxRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// The workload's shape (its flows, the firewall rules and which flow takes
// which Zipf rank) comes from this fixed seed, so every --seed offers the
// same flows and loads the two workers alike. --seed picks the warm-up order
// and the draw order.
constexpr std::uint64_t kShapeSeed = 0x6e666265;

// ---------------------------------------------------------------------------
// Seeded inputs of a runtime workload.

struct NfInputs {
  std::vector<net::FiveTuple> flows;
  std::vector<Rule> rules;
  FlowExpect expect;
  std::uint64_t warm_packets = 0;
};

void BuildInputs(const NfSpec& nf, std::uint64_t seed, NfInputs* in) {
  util::Rng shape(kShapeSeed);
  util::Rng rng(seed);
  in->flows = MakeFlows(nf.flows, shape);
  FlowExpect& e = in->expect;
  e.denied.assign(nf.flows, 0);
  e.ttl = 64;
  if (nf.mbox) {
    in->rules = MakeRules(shape);
    for (std::size_t f = 0; f < nf.flows; ++f) {
      e.denied[f] = Denied(in->rules, in->flows[f]) ? 1 : 0;
    }
    e.ttl = 63;
    e.nat = true;
    e.nat_ip = kNatIp;
    // The backend a reference Maglev, built here, picks for each flow: the
    // conntrack stage pins a flow to this backend at its first packet.
    const net::Maglev ref(BackendNames(), kMaglevSlots);
    e.backend_ip.resize(nf.flows);
    for (std::size_t f = 0; f < nf.flows; ++f) {
      e.backend_ip[f] = BackendIp(ref.Lookup(in->flows[f].Hash()));
    }
  }
  e.warm_flow = Permutation(nf.flows, rng);
  e.warm_base = kBurst;  // burst 1: stamps start above 0
  in->warm_packets = nf.flows * nf.warm_passes;
  e.draw_base = e.warm_base + in->warm_packets;
  if (nf.zipf > 0) {
    e.draw_flow = ZipfDraws(Permutation(nf.flows, shape), nf.zipf, rng);
  } else {
    e.draw_flow = UniformDraws(nf.flows, rng);
  }
}

std::vector<net::StageSpec> MakeSpec(const NfSpec& nf, const NfInputs& in,
                                     TxShared* tx, TraceShared* trace) {
  using Factory = std::function<std::unique_ptr<net::Operator>(std::size_t)>;
  std::vector<std::pair<std::string, Factory>> stages;
  if (nf.mbox) {
    const std::vector<net::FirewallRule> rules = ToFirewall(in.rules);
    stages.emplace_back("firewall", [rules](std::size_t) {
      return std::make_unique<net::FirewallNf>(rules);
    });
    stages.emplace_back("ttl", [](std::size_t) {
      return std::make_unique<net::TtlDecrement>();
    });
    stages.emplace_back("conntrack", [](std::size_t) {
      std::vector<std::uint32_t> ips;
      for (std::size_t i = 0; i < kBackends; ++i) {
        ips.push_back(BackendIp(i));
      }
      return std::make_unique<net::MaglevConnTrack>(
          net::Maglev(BackendNames(), kMaglevSlots), std::move(ips));
    });
    // Disjoint NAT port ranges per worker keep ports unique runtime-wide.
    stages.emplace_back("nat", [](std::size_t w) {
      return std::make_unique<net::NatRewrite>(
          kNatIp, static_cast<std::uint16_t>(1024 + w * 32256));
    });
  } else {
    for (int i = 0; i < 5; ++i) {
      stages.emplace_back("null" + std::to_string(i), [](std::size_t) {
        return std::make_unique<net::NullFilter>();
      });
    }
  }
  stages.emplace_back("tx", [tx](std::size_t w) {
    return std::make_unique<TxStage>(tx, w);
  });
  std::vector<net::StageSpec> spec;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    net::StageSpec s;
    s.name = stages[i].first;
    Factory make = stages[i].second;
    if (trace != nullptr) {
      s.make = [make, i, trace](std::size_t w) {
        return Timed(make(w), static_cast<std::uint16_t>(i), trace, w);
      };
    } else {
      s.make = make;
    }
    spec.push_back(std::move(s));
  }
  return spec;
}

std::vector<std::string> StageNames(const NfSpec& nf) {
  if (nf.mbox) {
    return {"firewall", "ttl", "conntrack", "nat", "tx"};
  }
  return {"null0", "null1", "null2", "null3", "null4", "tx"};
}

// ---------------------------------------------------------------------------
// One runtime lifetime: set-up (repeated), saturation, open loop.

struct DispatchRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

struct EpochRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool ok = false;
};

// Calls CheckpointLive every kCkptPeriod until stopped; joined on scope exit.
class CheckpointTicker {
 public:
  explicit CheckpointTicker(net::Runtime* rt) : rt_(rt) {
    epochs_.reserve(4096);
    thread_ = std::thread([this] { Loop(); });
  }
  ~CheckpointTicker() { Stop(); }
  CheckpointTicker(const CheckpointTicker&) = delete;
  CheckpointTicker& operator=(const CheckpointTicker&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // Valid after Stop().
  const std::vector<EpochRec>& epochs() const { return epochs_; }

 private:
  void Loop() {
    auto next = std::chrono::steady_clock::now() + kCkptPeriod;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      lock.unlock();
      EpochRec e;
      e.start = NowNs();
      e.ok = rt_->CheckpointLive();
      e.end = NowNs();
      epochs_.push_back(e);
      lock.lock();
      next += kCkptPeriod;
    }
  }

  net::Runtime* rt_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<EpochRec> epochs_;
  std::thread thread_;
};

struct PassResult {
  std::vector<double> setup_s;
  double rss_mb = 0;             // valid for the first pass of a process
  double tput_mpps = 0;
  Summary tput_windows;          // Mpps per saturation window
  std::uint64_t sat_pkts = 0;
  Summary lat_ns;                // open loop, per packet
  Summary lat_p50_windows;       // per-window p50, over 100 ms windows
  Summary lat_p90_windows;       // per-window p90
  Summary late_ns;               // open-loop generator lateness, per burst
  std::vector<EpochRec> epochs;
  Summary epoch_ns;
  Summary stall_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Verdict verdict;
  std::uint64_t warm_failed = 0;
  std::uint64_t dispatch_failed = 0;
  std::uint64_t overflow = 0;
  std::map<std::string, double> layer;  // traced pass only
  std::map<std::string, std::uint64_t> layer_n;
  std::vector<std::string> ledger;
};

net::FlowBatch MakeBurst(const NfInputs& in, std::uint64_t burst,
                         std::uint64_t* offered, std::uint64_t* denied) {
  net::FlowBatch b(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const std::uint64_t seq = burst * kBurst + i;
    const std::uint32_t flow = in.expect.FlowOf(seq);
    b.Push(net::FlowWork{in.flows[flow], seq});
    *denied += in.expect.denied[flow];
  }
  *offered += kBurst;
  return b;
}

// Waits until the tx stages have delivered `target` packets. A lost packet
// makes this time out; the oracle then reports it as missing.
void WaitDrain(const TxShared& tx, std::uint64_t target) {
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  while (tx.Delivered() < target && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// What the traced pass hands to the per-layer analysis.
struct TraceInputs {
  const NfSpec* nf = nullptr;
  const TxShared* tx = nullptr;
  const TraceShared* trace = nullptr;
  OpenLoopSchedule sched;
  std::uint64_t open_bursts = 0;
  std::int64_t t_first = 0;          // first saturation dispatch
  std::int64_t t_sat_dispatched = 0;  // generator left saturation
  std::int64_t sat_wall_ns = 0;      // first dispatch -> last saturation delivery
  std::int64_t sat_dispatch_ns = 0;  // generator time inside Dispatch
  std::uint64_t sat_calls = 0;
  const std::vector<DispatchRec>* open_disp = nullptr;
  const std::vector<EpochRec>* epochs = nullptr;
  const Summary* late_ns = nullptr;
  double subbatches_per_call = 0;
};

void Put(PassResult* r, const std::string& name, double v, std::uint64_t n) {
  r->layer[name] = v;
  r->layer_n[name] = n;
}

double Median(std::vector<double> v) { return Summarize(v).p50; }

// The gated statistic over a run's windows (see InterquartileMean).
double WindowMean(const Summary& windows) {
  std::vector<double> v;
  for (const Weighted& w : windows.sorted) {
    v.push_back(w.value);
  }
  return InterquartileMean(std::move(v));
}

void AnalyzeTrace(const TraceInputs& ti, PassResult* r) {
  const std::vector<std::string> names = StageNames(*ti.nf);
  const std::size_t nstages = names.size();
  const std::size_t tx_stage = nstages - 1;

  // Dispatch layer.
  std::vector<double> call_us;
  for (const DispatchRec& d : *ti.open_disp) {
    call_us.push_back(static_cast<double>(d.end - d.start) / 1e3);
  }
  const Summary calls = Summarize(call_us);
  Put(r, "dispatch.call_us_p50", calls.At(0.5), calls.n);
  Put(r, "dispatch.call_us_p99", calls.At(0.99), calls.n);
  Put(r, "dispatch.busy_frac",
      static_cast<double>(ti.sat_dispatch_ns) /
          static_cast<double>(ti.t_sat_dispatched - ti.t_first),
      ti.sat_calls);
  Put(r, "dispatch.subbatches_per_call", ti.subbatches_per_call, ti.sat_calls);

  // Per-stage sums over every saturation sub-batch.
  std::vector<StageSums> stage(nstages);
  std::vector<std::int64_t> lane_busy(ti.trace->lanes.size(), 0);
  for (std::size_t w = 0; w < ti.trace->lanes.size(); ++w) {
    for (std::size_t s = 0; s < nstages; ++s) {
      const StageSums& x = ti.trace->lanes[w]->sat_sums[s];
      stage[s].calls += x.calls;
      stage[s].pkts += x.pkts;
      stage[s].ns += x.ns;
      lane_busy[w] += x.ns;
    }
  }
  for (std::size_t s = 0; s < nstages; ++s) {
    Put(r, "op." + names[s] + ".ns_per_pkt",
        static_cast<double>(stage[s].ns) / static_cast<double>(std::max<std::uint64_t>(stage[s].pkts, 1)),
        stage[s].pkts);
  }
  Put(r, "op.pkts_per_subbatch",
      static_cast<double>(stage[0].pkts) / static_cast<double>(std::max<std::uint64_t>(stage[0].calls, 1)),
      stage[0].calls);
  std::uint64_t sat_total = 0;
  std::uint64_t sat_max = 0;
  for (std::size_t w = 0; w < ti.trace->lanes.size(); ++w) {
    Put(r, "worker." + std::to_string(w) + ".busy_frac",
        static_cast<double>(lane_busy[w]) / static_cast<double>(ti.sat_wall_ns),
        stage[0].calls);
    sat_total += ti.tx->lanes[w]->sat_pkts;
    sat_max = std::max(sat_max, ti.tx->lanes[w]->sat_pkts);
  }
  Put(r, "worker.pkt_share_max",
      static_cast<double>(sat_max) / static_cast<double>(std::max<std::uint64_t>(sat_total, 1)),
      sat_total);

  // Sampled sub-batches: a lane's spans of one sub-batch are consecutive,
  // stage 0 first.
  std::vector<double> gaps_ns;
  std::vector<double> spans_per_sb;
  std::vector<double> queue_us;
  std::vector<double> unattributed;
  std::vector<double> e2e;
  // Ledger means over the sampled open-loop sub-batches.
  double sum_late = 0, sum_disp = 0, sum_queue = 0, sum_cross = 0, sum_tx = 0,
         sum_e2e = 0, sum_un = 0;
  std::vector<double> sum_stage(nstages, 0.0);
  std::size_t ledger_n = 0;
  for (std::size_t w = 0; w < ti.trace->lanes.size(); ++w) {
    // This lane's delivery stamp per open-loop burst.
    std::vector<std::int64_t> delivered_at(ti.open_bursts, 0);
    for (const Delivery& d : ti.tx->lanes[w]->open) {
      delivered_at[d.burst - ti.sched.first_burst] = d.t_ns;
    }
    const std::vector<StageSpan>& spans = ti.trace->lanes[w]->spans;
    std::size_t i = 0;
    while (i < spans.size()) {
      std::size_t j = i + 1;
      while (j < spans.size() && spans[j].req == spans[i].req &&
             spans[j].stage > spans[j - 1].stage) {
        ++j;
      }
      const std::uint64_t req = spans[i].req;
      const PhaseMarks::Phase phase = ti.tx->marks.Of(req);
      const bool whole = spans[i].stage == 0 && spans[j - 1].stage == tx_stage &&
                         j - i == nstages;
      if (whole && phase == PhaseMarks::kSat) {
        for (std::size_t k = i + 1; k < j; ++k) {
          gaps_ns.push_back(static_cast<double>(spans[k].start - spans[k - 1].end));
        }
        spans_per_sb.push_back(static_cast<double>(j - i));
      }
      if (whole && phase == PhaseMarks::kOpen) {
        const std::uint64_t k = req - ti.sched.first_burst;
        const std::int64_t delivery = delivered_at[k];
        if (delivery != 0) {
          const DispatchRec& d = (*ti.open_disp)[k];
          const std::int64_t due = ti.sched.DueNs(req);
          const double late = static_cast<double>(d.start - due);
          const double disp = static_cast<double>(d.end - d.start);
          const double queue = static_cast<double>(std::max<std::int64_t>(0, spans[i].start - d.end));
          // The pipeline span runs from the first stage's start to tx's
          // start; its self time, outside the stage spans, is the crossings.
          double self = 0;
          std::vector<Interval> stage_spans;
          for (std::size_t m = i; m + 1 < j; ++m) {
            const auto len = static_cast<double>(spans[m].end - spans[m].start);
            self += len;
            sum_stage[spans[m].stage] += len;
            stage_spans.push_back(Interval{spans[m].start, spans[m].end});
          }
          const auto cross = static_cast<double>(
              SelfTime(Interval{spans[i].start, spans[j - 1].start}, stage_spans));
          const double tx_part = static_cast<double>(delivery - spans[j - 1].start);
          const double total = static_cast<double>(delivery - due);
          const double un = total - (late + disp + queue + cross + self + tx_part);
          queue_us.push_back(static_cast<double>(spans[i].start - d.end) / 1e3);
          unattributed.push_back(std::abs(un));
          e2e.push_back(total);
          sum_late += late;
          sum_disp += disp;
          sum_queue += queue;
          sum_cross += cross;
          sum_tx += tx_part;
          sum_e2e += total;
          sum_un += un;
          ++ledger_n;
        }
      }
      i = j;
    }
  }
  const Summary q = Summarize(queue_us);
  Put(r, "queue.wait_us_p50", q.At(0.5), q.n);
  Put(r, "queue.wait_us_p90", q.At(0.9), q.n);
  Put(r, "sfi.crossing_ns_p50", Median(gaps_ns), gaps_ns.size());
  double spans_total = 0;
  for (double v : spans_per_sb) {
    spans_total += v;
  }
  Put(r, "sfi.crossings_per_subbatch",
      spans_total / static_cast<double>(std::max<std::size_t>(spans_per_sb.size(), 1)),
      spans_per_sb.size());
  // Unattributed time, summed without sign, against the latency it should
  // tile.
  double abs_un = 0;
  double total_e2e = 0;
  for (std::size_t k = 0; k < unattributed.size(); ++k) {
    abs_un += unattributed[k];
    total_e2e += e2e[k];
  }
  Put(r, "trace.closure_frac", abs_un / std::max(total_e2e, 1.0), unattributed.size());
  Put(r, "gen.late_us_p99", ti.late_ns->At(0.99) / 1e3, ti.late_ns->n);
  if (ledger_n > 0) {
    const double n = static_cast<double>(ledger_n);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ledger (mean us over %zu sampled open-loop sub-batches): e2e=%.3f "
                  "late=%.3f dispatch=%.3f queue=%.3f crossings=%.3f tx_to_delivery=%.3f "
                  "unattributed=%.3f",
                  ledger_n, sum_e2e / n / 1e3, sum_late / n / 1e3, sum_disp / n / 1e3,
                  sum_queue / n / 1e3, sum_cross / n / 1e3, sum_tx / n / 1e3, sum_un / n / 1e3);
    r->ledger.push_back(buf);
    std::string stages = "ledger stage self (mean us):";
    for (std::size_t s = 0; s < tx_stage; ++s) {
      std::snprintf(buf, sizeof(buf), " %s=%.3f", names[s].c_str(), sum_stage[s] / n / 1e3);
      stages += buf;
    }
    r->ledger.push_back(stages);
  }

  // Checkpoint capture, per worker per epoch: first SaveState start to last
  // SaveState end inside the epoch's CheckpointLive span.
  if (ti.nf->mbox) {
    std::vector<double> capture_ms;
    std::vector<double> install_ms;
    std::map<std::uint16_t, std::vector<double>> save_ms;
    for (const auto& lane : ti.trace->lanes) {
      for (const CkptSpan& s : lane->saves) {
        save_ms[s.stage].push_back(static_cast<double>(s.end - s.start) / 1e6);
      }
    }
    for (const EpochRec& e : *ti.epochs) {
      if (!e.ok) {
        continue;
      }
      std::int64_t longest = 0;
      for (const auto& lane : ti.trace->lanes) {
        std::int64_t first = 0;
        std::int64_t last = 0;
        for (const CkptSpan& s : lane->saves) {
          if (s.start >= e.start && s.end <= e.end) {
            first = first == 0 ? s.start : std::min(first, s.start);
            last = std::max(last, s.end);
          }
        }
        if (first != 0) {
          capture_ms.push_back(static_cast<double>(last - first) / 1e6);
          longest = std::max(longest, last - first);
        }
      }
      install_ms.push_back(static_cast<double>(e.end - e.start - longest) / 1e6);
    }
    Put(r, "ckpt.capture_ms", Median(capture_ms), capture_ms.size());
    Put(r, "ckpt.install_ms", Median(install_ms), install_ms.size());
    for (const auto& [s, v] : save_ms) {
      Put(r, "ckpt.save_ms." + names[s], Median(v), v.size());
    }
  }
}

PassResult RunPass(const NfSpec& nf, const NfInputs& in, double seconds, bool traced,
                   int reps) {
  PassResult r;
  net::RuntimeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_depth = 64;
  cfg.pool_capacity = 4096;
  cfg.isolated = true;
  cfg.ckpt.enabled = nf.mbox;

  const double sat_s = 0.5 * seconds;
  const double open_s = 0.5 * seconds;
  const double period_ns = static_cast<double>(kBurst) * 1e9 / nf.open_rate_pps;
  const auto open_bursts = static_cast<std::uint64_t>(open_s * 1e9 / period_ns);
  const std::size_t nstages = StageNames(nf).size();
  // Sampled spans per worker: at most every burst (3e5 bursts/s is above
  // any measured saturation rate) times the stage count, 1 in kSpanSample.
  const auto sat_burst_cap = static_cast<std::size_t>(sat_s * 3e5);
  const std::size_t span_cap = (sat_burst_cap + open_bursts) / kSpanSample * nstages + 4096;

  // Every log the generator and the tx stages fill is allocated and written
  // through before the first runtime exists (see MaxRssMb). Free memory goes
  // back to the kernel first, so the runtime cannot reuse pages that the
  // baseline already counts.
  malloc_trim(0);
  // Declared so the runtime, whose stages point into tx and trace, goes first.
  auto tx = std::make_unique<TxShared>(&in.expect, kWorkers, open_bursts + 64);
  std::unique_ptr<TraceShared> trace;
  if (traced) {
    trace = std::make_unique<TraceShared>(kWorkers, nstages, span_cap);
    trace->marks = &tx->marks;
  }
  std::vector<DispatchRec> open_disp(traced ? open_bursts : 0);
  std::vector<double> late(open_bursts);
  const double rss_base = MaxRssMb();
  std::unique_ptr<net::Runtime> rt;
  std::uint64_t next = 0;
  std::uint64_t offered = 0;
  std::uint64_t denied = 0;
  for (int rep = 0; rep < reps; ++rep) {
    if (rt) {
      rt->Shutdown();
      r.warm_failed += tx->oracle.Judge(offered, denied).failed();
      r.attempted += offered;
      rt.reset();
      tx->Reset();
    }
    offered = 0;
    denied = 0;
    const std::int64_t t0 = NowNs();
    rt = std::make_unique<net::Runtime>(cfg, MakeSpec(nf, in, tx.get(), trace.get()));
    rt->Start();
    next = in.expect.warm_base / kBurst;
    for (; next < in.expect.draw_base / kBurst; ++next) {
      if (!rt->Dispatch(MakeBurst(in, next, &offered, &denied))) {
        ++r.dispatch_failed;
      }
    }
    WaitDrain(*tx, offered - denied);
    r.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const net::RuntimeStats s0 = rt->Stats();
  std::unique_ptr<CheckpointTicker> ctl;
  if (nf.mbox) {
    ctl = std::make_unique<CheckpointTicker>(rt.get());
  }

  // Saturation: closed loop, Dispatch blocks while a worker queue is full.
  const std::int64_t t_first = NowNs();
  tx->sat_t0.store(t_first, std::memory_order_relaxed);
  tx->marks.sat_begin.store(next, std::memory_order_release);
  const std::int64_t t_sat_end = t_first + static_cast<std::int64_t>(sat_s * 1e9);
  std::int64_t sat_dispatch_ns = 0;  // generator time inside Dispatch
  std::uint64_t sat_calls = 0;
  while (NowNs() < t_sat_end) {
    net::FlowBatch b = MakeBurst(in, next++, &offered, &denied);
    bool ok = false;
    if (traced) {
      const std::int64_t ts = NowNs();
      ok = rt->Dispatch(std::move(b));
      sat_dispatch_ns += NowNs() - ts;
    } else {
      ok = rt->Dispatch(std::move(b));
    }
    ++sat_calls;
    r.dispatch_failed += ok ? 0 : 1;
  }
  const std::int64_t t_sat_dispatched = NowNs();
  WaitDrain(*tx, offered - denied);

  // Open loop: burst k is due at t0 + k * period whatever the runtime does.
  tx->marks.open_begin.store(next, std::memory_order_release);
  const OpenLoopSchedule sched{NowNs() + 1'000'000, period_ns, next};
  for (std::uint64_t k = 0; k < open_bursts; ++k) {
    const std::uint64_t burst = next++;
    net::FlowBatch b = MakeBurst(in, burst, &offered, &denied);
    const std::int64_t due = sched.DueNs(burst);
    std::int64_t t = NowNs();
    while (t < due) {
      t = NowNs();
    }
    late[k] = static_cast<double>(t - due);
    const bool ok = rt->Dispatch(std::move(b));
    if (traced) {
      open_disp[k] = DispatchRec{t, NowNs()};
    }
    r.dispatch_failed += ok ? 0 : 1;
  }
  WaitDrain(*tx, offered - denied);
  if (ctl) {
    ctl->Stop();
    r.epochs = ctl->epochs();
  }
  const net::RuntimeStats s1 = rt->Stats();
  const double subbatches_per_call =
      static_cast<double>(s1.sub_batches - s0.sub_batches) /
      static_cast<double>(std::max<std::uint64_t>(s1.dispatch_calls - s0.dispatch_calls, 1));

  std::uint64_t failover_failed = 0;
  if (traced && nf.mbox) {
    const net::RuntimeCkptImage image = rt->CheckpointImageCopy();
    Put(&r, "ckpt.image_kb",
        static_cast<double>(ckpt::Checkpoint(image).size_bytes()) / 1024.0, 1);
    // Failover re-homes flows for good, so it runs once, after the timed
    // phases, and feeds no gated metric.
    const std::int64_t f0 = NowNs();
    const bool ok = rt->FailoverWorker(1);
    Put(&r, "ckpt.failover_ms", static_cast<double>(NowNs() - f0) / 1e6, 1);
    failover_failed = ok ? 0 : 1;
  }
  rt->Shutdown();
  r.rss_mb = MaxRssMb() - rss_base;

  r.verdict = tx->oracle.Judge(offered, denied);
  r.attempted += offered + r.epochs.size() + (traced && nf.mbox ? 1 : 0);
  std::int64_t sat_last = 0;
  std::vector<Delivery> deliveries;
  for (const auto& lane : tx->lanes) {
    sat_last = std::max(sat_last, lane->sat_last_ns);
    r.sat_pkts += lane->sat_pkts;
    r.overflow += lane->open_overflow;
    deliveries.insert(deliveries.end(), lane->open.begin(), lane->open.end());
  }
  // Throughput: the interquartile mean over the saturation windows the
  // generator kept full. The first half second still settles (queues fill, threads find
  // their cores) and the drain after the generator stops is not saturated.
  std::vector<double> window_mpps;
  const std::int64_t full_windows = (t_sat_dispatched - t_first) / kWindowNs;
  for (std::int64_t k = full_windows > 2 * kSettleWindows ? kSettleWindows : 0;
       k < std::min<std::int64_t>(full_windows, kMaxWindows); ++k) {
    std::uint64_t pkts = 0;
    for (const auto& lane : tx->lanes) {
      pkts += lane->sat_window[static_cast<std::size_t>(k)];
    }
    window_mpps.push_back(static_cast<double>(pkts) / static_cast<double>(kWindowNs) * 1e3);
  }
  r.tput_windows = Summarize(window_mpps);
  r.tput_mpps = WindowMean(r.tput_windows);
  r.lat_ns = Summarize(MatchDeliveries(sched, deliveries));
  r.lat_p50_windows = WindowedQuantile(sched, deliveries, kWindowNs, 0.5);
  r.lat_p90_windows = WindowedQuantile(sched, deliveries, kWindowNs, 0.9);
  r.late_ns = Summarize(late);

  std::uint64_t failed_epochs = 0;
  std::vector<double> epoch_ns;
  std::vector<double> stall_ns;
  const std::int64_t last_due = sched.DueNs(next - 1);
  for (const EpochRec& e : r.epochs) {
    failed_epochs += e.ok ? 0 : 1;
    epoch_ns.push_back(static_cast<double>(e.end - e.start));
    if (e.start < sched.t0_ns || e.end > last_due) {
      continue;
    }
    std::int64_t worst = -1;
    for (const Delivery& d : deliveries) {
      const std::int64_t due = sched.DueNs(d.burst);
      if (d.pkts > 0 && due >= e.start && due <= e.end) {
        worst = std::max(worst, d.t_ns - due);
      }
    }
    if (worst >= 0) {
      stall_ns.push_back(static_cast<double>(worst));
    }
  }
  r.epoch_ns = Summarize(epoch_ns);
  r.stall_ns = Summarize(stall_ns);
  r.failed = r.verdict.failed() + r.warm_failed + r.dispatch_failed + failed_epochs +
             r.overflow + failover_failed;

  if (traced) {
    TraceInputs ti;
    ti.nf = &nf;
    ti.tx = tx.get();
    ti.trace = trace.get();
    ti.sched = sched;
    ti.open_bursts = open_bursts;
    ti.t_first = t_first;
    ti.t_sat_dispatched = t_sat_dispatched;
    ti.sat_wall_ns = sat_last - t_first;
    ti.sat_dispatch_ns = sat_dispatch_ns;
    ti.sat_calls = sat_calls;
    ti.open_disp = &open_disp;
    ti.epochs = &r.epochs;
    ti.late_ns = &r.late_ns;
    ti.subbatches_per_call = subbatches_per_call;
    AnalyzeTrace(ti, &r);
    for (const CkptSpan& s : trace->loads) {
      Put(&r, "ckpt.load_ms." + StageNames(nf)[s.stage],
          static_cast<double>(s.end - s.start) / 1e6, 1);
    }
    std::uint64_t span_overflow = 0;
    for (const auto& lane : trace->lanes) {
      span_overflow += lane->span_overflow;
    }
    if (span_overflow > 0) {
      Report::Note("span buffers full: " + std::to_string(span_overflow) +
                   " sampled spans dropped");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Workload runners.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

void NoteVerdict(const PassResult& p) {
  const Verdict& v = p.verdict;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "oracle: offered=%llu predicted_denied=%llu delivered=%llu missing=%llu "
                "extra=%llu order_errors=%llu denied_delivered=%llu header_errors=%llu "
                "nat_errors=%llu dst_errors=%llu nat_port_clashes=%llu flow_moves=%llu "
                "warmup_failures=%llu dispatch_failures=%llu",
                static_cast<unsigned long long>(v.offered),
                static_cast<unsigned long long>(v.denied),
                static_cast<unsigned long long>(v.delivered),
                static_cast<unsigned long long>(v.missing),
                static_cast<unsigned long long>(v.extra),
                static_cast<unsigned long long>(v.order_errors),
                static_cast<unsigned long long>(v.denied_delivered),
                static_cast<unsigned long long>(v.header_errors),
                static_cast<unsigned long long>(v.nat_errors),
                static_cast<unsigned long long>(v.dst_errors),
                static_cast<unsigned long long>(v.port_clashes),
                static_cast<unsigned long long>(v.flow_moves),
                static_cast<unsigned long long>(p.warm_failed),
                static_cast<unsigned long long>(p.dispatch_failed));
  Report::Note(buf);
}

// The end-to-end numbers of one pass, under `prefix`.
void AddEndToEnd(Report& rep, const std::string& prefix, const PassResult& p) {
  rep.AddTiming(prefix + "tput_kops", p.tput_mpps * 1e3, p.tput_windows, 1e3, "kop/s");
  rep.AddTiming(prefix + "lat_p50_us", WindowMean(p.lat_p50_windows) / 1e3,
                p.lat_p50_windows, 1e-3, "us");
  rep.AddTiming(prefix + "lat_p90_us", WindowMean(p.lat_p90_windows) / 1e3,
                p.lat_p90_windows, 1e-3, "us");
  rep.AddTiming(prefix + "lat_us", p.lat_ns.p50 / 1e3, p.lat_ns, 1e-3, "us");
}

// Checkpoint metrics of the middlebox chain (gated only through tput and
// latency; see README.md).
void AddCkpt(Report& rep, const std::string& prefix, const PassResult& p) {
  rep.AddTiming(prefix + "ckpt_epoch_ms", p.epoch_ns.p50 / 1e6, p.epoch_ns, 1e-6, "ms");
  rep.AddTiming(prefix + "ckpt_stall_ms", p.stall_ns.p50 / 1e6, p.stall_ns, 1e-6, "ms");
}

constexpr std::size_t kTrieRules = 1024;
constexpr std::size_t kTrieAliases = 16;

struct TrieResult {
  std::vector<double> setup_s;
  double rss_mb = 0;
  Summary ckpt;     // ns per Checkpoint call
  Summary restore;  // ns per Restore call
  Summary round;    // ns per Checkpoint + Restore
  double busy_ns = 0;
  std::size_t snapshot_bytes = 0;
  ckpt::CheckpointStats stats;
  std::uint64_t bad = 0;  // restores that fail the oracle
};

// Figure 3: builds the trie `reps` times (set-up), then alternates
// Checkpoint (writes the snapshot) with Restore (reads it) for `seconds`,
// checking every restore outside the timed calls.
TrieResult MeasureTrie(std::uint64_t seed, double seconds, int reps) {
  TrieResult r;
  const double rss_base = MaxRssMb();
  std::unique_ptr<ckpt::RuleTrie> trie;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    auto built = std::make_unique<ckpt::RuleTrie>(MakeTrie(kTrieRules, kTrieAliases, seed));
    r.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    trie = std::move(built);
  }
  Report::Note("trie: nodes=" + std::to_string(trie->NodeCount()) +
               " rule_slots=" + std::to_string(trie->RuleSlotCount()) +
               " distinct_rules=" + std::to_string(trie->DistinctRuleCount()));
  std::vector<double> ckpt_ns;
  std::vector<double> restore_ns;
  std::vector<double> round_ns;
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const std::int64_t t0 = NowNs();
    const ckpt::Snapshot snap = ckpt::Checkpoint(*trie, ckpt::DedupMode::kLinearMark, &r.stats);
    const std::int64_t t1 = NowNs();
    const ckpt::RuleTrie back = ckpt::Restore<ckpt::RuleTrie>(snap);
    const std::int64_t t2 = NowNs();
    ckpt_ns.push_back(static_cast<double>(t1 - t0));
    restore_ns.push_back(static_cast<double>(t2 - t1));
    round_ns.push_back(static_cast<double>(t2 - t0));
    r.busy_ns += static_cast<double>(t2 - t0);
    if (r.snapshot_bytes == 0) {
      r.snapshot_bytes = snap.size_bytes();
    }
    if (snap.size_bytes() != r.snapshot_bytes || !ckpt::RuleTrie::Equivalent(*trie, back) ||
        back.DistinctRuleCount() != kTrieRules) {
      ++r.bad;
    }
  }
  r.rss_mb = MaxRssMb() - rss_base;
  r.ckpt = Summarize(ckpt_ns);
  r.restore = Summarize(restore_ns);
  r.round = Summarize(round_ns);
  Report::Note("trie oracle: restores=" + std::to_string(round_ns.size()) +
               " not_equivalent_or_wrong_size=" + std::to_string(r.bad));
  return r;
}

void AddTrieLayers(Report& rep, const TrieResult& t) {
  rep.AddTiming("ckpt.ckpt_ms", t.ckpt.p50 / 1e6, t.ckpt, 1e-6, "ms");
  rep.AddTiming("ckpt.restore_ms", t.restore.p50 / 1e6, t.restore, 1e-6, "ms");
  rep.Add("ckpt.snapshot_kb", static_cast<double>(t.snapshot_bytes) / 1024.0, "KB", 1);
  rep.Add("ckpt.payload_copies", static_cast<double>(t.stats.payload_copies), "count", 1);
  rep.Add("ckpt.back_refs", static_cast<double>(t.stats.back_refs), "count", 1);
}

int RunNf(const NfSpec& nf, const Args& a) {
  NfInputs in;
  BuildInputs(nf, a.seed, &in);
  std::size_t denied_flows = 0;
  for (std::uint8_t d : in.expect.denied) {
    denied_flows += d;
  }
  std::size_t denied_draws = 0;
  for (std::uint32_t f : in.expect.draw_flow) {
    denied_draws += in.expect.denied[f];
  }
  Report::Note("inputs: flows=" + std::to_string(nf.flows) +
               " denied_flows=" + std::to_string(denied_flows) + " denied_pkt_share=" +
               std::to_string(static_cast<double>(denied_draws) /
                              static_cast<double>(in.expect.draw_flow.size())) +
               " open_loop_rate_pps=" + std::to_string(static_cast<long long>(nf.open_rate_pps)));
  Report rep;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!a.trace) {
    const PassResult p = RunPass(nf, in, a.seconds, false, kSetupReps);
    NoteVerdict(p);
    rep.AddTiming("setup_s", Median(p.setup_s), Summarize(p.setup_s), 1, "s");
    AddEndToEnd(rep, "", p);
    rep.Add("tput_mpps", p.tput_mpps, "Mpps", p.sat_pkts);
    if (nf.mbox) {
      AddCkpt(rep, "", p);
    }
    rep.AddTiming("gen.late_us", p.late_ns.p50 / 1e3, p.late_ns, 1e-3, "us");
    rep.Add("peak_rss_mb", p.rss_mb, "MB", 1);
    attempted = p.attempted;
    failed = p.failed;
  } else {
    // Pass A untraced, pass B traced, same inputs and length: B gives the
    // per-layer numbers, B - A the tracing overhead.
    const PassResult pa = RunPass(nf, in, a.seconds / 2, false, 1);
    const PassResult pb = RunPass(nf, in, a.seconds / 2, true, 1);
    NoteVerdict(pa);
    NoteVerdict(pb);
    AddEndToEnd(rep, "untraced.", pa);
    AddEndToEnd(rep, "traced.", pb);
    rep.Add("untraced.peak_rss_mb", pa.rss_mb, "MB", 1);
    if (nf.mbox) {
      AddCkpt(rep, "untraced.", pa);
      rep.Add("ckpt.epoch_ms", pa.epoch_ns.p50 / 1e6, "ms", pa.epoch_ns.n);
      rep.Add("ckpt.stall_ms", pa.stall_ns.p50 / 1e6, "ms", pa.stall_ns.n);
    }
    for (const std::string& line : pb.ledger) {
      Report::Note(line);
    }
    for (const auto& [name, v] : pb.layer) {
      std::string unit;
      for (const MetricDef& m : kPerLayer) {
        unit = name == m.name ? m.unit : unit;
      }
      rep.Add(name, v, unit, pb.layer_n.at(name));
    }
    rep.Add("trace.overhead_tput_frac", (pa.tput_mpps - pb.tput_mpps) / pa.tput_mpps,
            "ratio", pb.sat_pkts);
    rep.Add("trace.overhead_lat_p50_frac",
            (WindowMean(pb.lat_p50_windows) - WindowMean(pa.lat_p50_windows)) /
                WindowMean(pa.lat_p50_windows),
            "ratio", pb.lat_p50_windows.n);
    attempted = pa.attempted + pb.attempted;
    failed = pa.failed + pb.failed;
    if (nf.mbox) {
      // The checkpoint library's own layer: Figure 3's aliased trie, on a
      // machine the runtime has left (see README.md, trie_ckpt).
      const TrieResult t = MeasureTrie(a.seed, kTrieLayerSeconds, 1);
      AddTrieLayers(rep, t);
      attempted += 2 * t.round.n;
      failed += t.bad;
    }
  }
  rep.Add("fail_frac", static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
          "ratio", attempted);
  correct = failed == 0;
  if (a.trace) {
    for (const MetricDef& m : kPerLayer) {
      if (!rep.Has(m.name)) {
        rep.Add(m.name, 0, m.unit, 0);  // layer not run by this workload
      }
    }
    correct = rep.PrintJson(kPerLayer, std::size(kPerLayer), correct, attempted, failed);
  } else {
    correct = rep.PrintJson(kEndToEnd, std::size(kEndToEnd), correct, attempted, failed);
  }
  return correct ? 0 : 1;
}

int RunTrie(const Args& a) {
  const TrieResult t = MeasureTrie(a.seed, a.seconds, kSetupReps);
  Report rep;
  const std::uint64_t attempted = 2 * t.round.n;
  rep.AddTiming("ckpt_ms", t.ckpt.p50 / 1e6, t.ckpt, 1e-6, "ms");
  rep.AddTiming("restore_ms", t.restore.p50 / 1e6, t.restore, 1e-6, "ms");
  rep.Add("snapshot_kb", static_cast<double>(t.snapshot_bytes) / 1024.0, "KB", 1);
  rep.AddTiming("setup_s", Median(t.setup_s), Summarize(t.setup_s), 1, "s");
  rep.Add("tput_kops", static_cast<double>(attempted) / t.busy_ns * 1e6, "kop/s", attempted);
  rep.AddTiming("lat_p50_us", t.round.p50 / 1e3, t.round, 1e-3, "us");
  rep.AddTiming("lat_p90_us", t.round.At(0.9) / 1e3, t.round, 1e-3, "us");
  rep.Add("peak_rss_mb", t.rss_mb, "MB", 1);
  rep.Add("fail_frac", static_cast<double>(t.bad) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
          "ratio", attempted);
  bool correct = t.bad == 0 && attempted > 0;
  if (a.trace) {
    AddTrieLayers(rep, t);
    for (const MetricDef& m : kPerLayer) {
      if (!rep.Has(m.name)) {
        rep.Add(m.name, 0, m.unit, 0);
      }
    }
    correct = rep.PrintJson(kPerLayer, std::size(kPerLayer), correct, attempted, t.bad);
  } else {
    correct = rep.PrintJson(kEndToEnd, std::size(kEndToEnd), correct, attempted, t.bad);
  }
  return correct ? 0 : 1;
}

void PrintLabels(const Args& a) {
  const char* rev = std::getenv("NFBENCH_GIT_REV");
  std::printf("# label nproc=%u build=%s compiler=\"g++ %s\" checked=%d git_rev=%s "
              "clock=steady_clock(CLOCK_MONOTONIC) seed=%llu workload=%s seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), NFBENCH_BUILD_TYPE, __VERSION__,
              LINSYS_CHECKED_OWNERSHIP, rev != nullptr && *rev != '\0' ? rev : "unknown",
              static_cast<unsigned long long>(a.seed), a.workload.c_str(), a.seconds,
              a.trace ? 1 : 0);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0 && a->seconds <= 120 &&
         (a->workload == "fwd64" || a->workload == "mbox_ckpt" ||
          a->workload == "trie_ckpt");
}

}  // namespace
}  // namespace nfbench

int main(int argc, char** argv) {
  nfbench::Args args;
  if (!nfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nfbench --workload fwd64|mbox_ckpt|trie_ckpt --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // glibc raises its mmap and trim thresholds the first time a large block
  // is freed. Whether a runtime's mempools came from fresh pages or from
  // recycled heap then depended on how many runtimes the process had built
  // before, and the median set-up time flipped between the two. Pinning
  // both thresholds at the adaptive maximum starts where the adaptation ends.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  nfbench::PrintLabels(args);
  try {
    if (args.workload == "trie_ckpt") {
      return nfbench::RunTrie(args);
    }
    return nfbench::RunNf(args.workload == "fwd64" ? nfbench::kFwd64 : nfbench::kMbox, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nfbench: %s\n", e.what());
    return 1;
  }
}
