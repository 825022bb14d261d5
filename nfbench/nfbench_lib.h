// Library-free pieces of the NF benchmark: the timing statistics, the
// open-loop due-time matching, span self time, and the output oracle. They
// sit in a header of their own so tests/selftest.cc can check them on
// hand-made inputs without building the runtime.
#ifndef NFBENCH_NFBENCH_LIB_H_
#define NFBENCH_NFBENCH_LIB_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace nfbench {

// Every due, dispatch, span and delivery stamp comes from this one clock.
// steady_clock is CLOCK_MONOTONIC on Linux: one time base for all threads.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Timing statistics.

// A sample value with a weight (a sub-batch latency counts once per packet).
struct Weighted {
  double value = 0;
  std::uint64_t weight = 1;
};

// Nearest-rank quantile: the smallest value whose cumulative weight reaches
// q * total. `v` must be sorted by value. NaN when empty.
inline double QuantileSorted(const std::vector<Weighted>& v, double q) {
  std::uint64_t total = 0;
  for (const Weighted& w : v) {
    total += w.weight;
  }
  if (total == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total)));
  std::uint64_t acc = 0;
  for (const Weighted& w : v) {
    acc += w.weight;
    if (static_cast<double>(acc) >= rank) {
      return w.value;
    }
  }
  return v.back().value;
}

// The highest percentile of the ladder 90, 99, 99.9, ... that has at least
// ten samples beyond it; 0 when even p90 lacks them (n < 100).
inline double TailLevel(std::uint64_t n) {
  double best = 0;
  for (double q : {0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) {
      best = q;
    }
  }
  return best;
}

// A timing as printed: median, the tail percentile TailLevel allows, and
// the sample count. tail_q == 0 means no tail percentile is supported.
struct Summary {
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double tail_q = 0;
  double tail = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t n = 0;

  // Quantile at an explicit level (p90 for the gated latency tail).
  std::vector<Weighted> sorted;
  double At(double q) const { return QuantileSorted(sorted, q); }
};

inline Summary Summarize(std::vector<Weighted> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end(),
            [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
  for (const Weighted& w : samples) {
    s.n += w.weight;
  }
  s.sorted = std::move(samples);
  if (s.n == 0) {
    return s;
  }
  s.p50 = QuantileSorted(s.sorted, 0.5);
  s.tail_q = TailLevel(s.n);
  if (s.tail_q > 0) {
    s.tail = QuantileSorted(s.sorted, s.tail_q);
  }
  return s;
}

inline Summary Summarize(const std::vector<double>& values) {
  std::vector<Weighted> w;
  w.reserve(values.size());
  for (double v : values) {
    w.push_back(Weighted{v, 1});
  }
  return Summarize(std::move(w));
}

// Interquartile mean: the mean of the middle half of the values (a quarter
// dropped at each end; with fewer than four values, the plain mean). Over
// per-window rates or percentiles it drops the windows a VM stall hit, like
// a median, but averages the rest, so a run that switches between two
// speeds does not flip between them. NaN when empty.
inline double InterquartileMean(std::vector<double> v) {
  if (v.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---------------------------------------------------------------------------
// Open-loop matching: burst b (of the open-loop phase) is due at
// t0 + (b - first_burst) * period, and every packet of a burst shares its
// due time. A delivery record is one sub-batch leaving the tx stage.

struct OpenLoopSchedule {
  std::int64_t t0_ns = 0;
  double period_ns = 0;
  std::uint64_t first_burst = 0;

  std::int64_t DueNs(std::uint64_t burst) const {
    return t0_ns + static_cast<std::int64_t>(std::llround(
                       static_cast<double>(burst - first_burst) * period_ns));
  }
};

struct Delivery {
  std::uint64_t burst = 0;
  std::uint32_t pkts = 0;
  std::int64_t t_ns = 0;
};

// Per-packet latency samples (ns, weighted by the sub-batch's packets),
// each delivery paired with the due time of the burst it came from.
inline std::vector<Weighted> MatchDeliveries(const OpenLoopSchedule& sched,
                                             const std::vector<Delivery>& d) {
  std::vector<Weighted> out;
  out.reserve(d.size());
  for (const Delivery& x : d) {
    if (x.pkts == 0) {
      continue;
    }
    out.push_back(Weighted{
        static_cast<double>(x.t_ns - sched.DueNs(x.burst)), x.pkts});
  }
  return out;
}

// The q-quantile of per-packet latency within each window of `window_ns`
// (by due time), summarized over windows. Its median is what the benchmark
// gates: a VM stall then moves the windows it covers, not the whole run.
inline Summary WindowedQuantile(const OpenLoopSchedule& sched,
                                const std::vector<Delivery>& d,
                                std::int64_t window_ns, double q) {
  std::vector<std::vector<Delivery>> windows;
  for (const Delivery& x : d) {
    const std::int64_t since = sched.DueNs(x.burst) - sched.t0_ns;
    const auto w = static_cast<std::size_t>(std::max<std::int64_t>(since, 0) / window_ns);
    if (w >= windows.size()) {
      windows.resize(w + 1);
    }
    windows[w].push_back(x);
  }
  std::vector<double> per_window;
  for (const auto& w : windows) {
    std::vector<Weighted> lat = MatchDeliveries(sched, w);
    if (lat.empty()) {
      continue;
    }
    std::sort(lat.begin(), lat.end(),
              [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
    per_window.push_back(QuantileSorted(lat, q));
  }
  return Summarize(per_window);
}

// ---------------------------------------------------------------------------
// Span self time: the span's duration minus the part of its interval that
// its children cover (overlapping children count once, and only inside the
// parent).

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

inline std::int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;
  for (const Interval& c : children) {
    const std::int64_t s = std::max(c.start, cursor);
    const std::int64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

// ---------------------------------------------------------------------------
// Output oracle. The benchmark knows, for every packet it offers, the flow
// it belongs to, whether its own rule evaluation denies that flow, and (for
// the middlebox chain) the backend a reference Maglev picks and the NAT
// address. Each worker's tx stage reports that worker's deliveries, in
// order, as one lane; Judge() folds the lanes together with the offered
// counts.
//
// Per-flow order is checked across workers, not only within one. A flow may
// change workers while keeping its order (work stealing moves a flow's
// future packets), so the oracle remembers which lane delivered each flow
// last. A lane that takes a flow over checks the packet against the
// previous lane's last stamp for that flow. Such a move is counted, not
// failed.

struct FlowExpect {
  // Packet sequence stamp -> flow index (the generator's own mapping).
  std::vector<std::uint32_t> warm_flow;  // seq - warm_base, warm-up
  std::vector<std::uint32_t> draw_flow;  // (seq - draw_base) % size
  std::uint64_t warm_base = 0;
  std::uint64_t draw_base = 0;
  std::vector<std::uint8_t> denied;      // per flow, by the rule list
  std::uint8_t ttl = 64;                 // TTL every delivered frame carries
  bool nat = false;                      // middlebox chain checks below
  std::uint32_t nat_ip = 0;              // host order
  std::vector<std::uint32_t> backend_ip;  // per flow, host order

  std::size_t flows() const { return denied.size(); }

  std::uint32_t FlowOf(std::uint64_t seq) const {
    if (seq < draw_base) {
      return warm_flow[(seq - warm_base) % warm_flow.size()];
    }
    return draw_flow[(seq - draw_base) % draw_flow.size()];
  }
};

// What the tx stage reads off one delivered frame (host order).
struct FrameObs {
  std::uint64_t seq = 0;
  std::uint32_t src_ip = 0;
  std::uint16_t src_port = 0;
  std::uint32_t dst_ip = 0;
  std::uint8_t ttl = 0;
  bool checksum_ok = true;
};

struct Verdict {
  std::uint64_t offered = 0;
  std::uint64_t denied = 0;     // predicted by the benchmark's rule list
  std::uint64_t delivered = 0;
  std::uint64_t missing = 0;    // offered - denied - delivered, if positive
  std::uint64_t extra = 0;      // delivered beyond offered - denied
  // Delivered frames that fail a check, by the check they fail first.
  std::uint64_t order_errors = 0;      // stamp not above the flow's last one
  std::uint64_t denied_delivered = 0;  // the rule list denies the flow
  std::uint64_t header_errors = 0;     // TTL or IPv4 checksum
  std::uint64_t nat_errors = 0;        // not the NAT IP, or the flow's port changed
  std::uint64_t dst_errors = 0;        // not the reference Maglev's backend
  std::uint64_t port_clashes = 0;  // two flows given one NAT port
  std::uint64_t flow_moves = 0;    // in-order moves of a flow between workers

  std::uint64_t frame_errors() const {
    return order_errors + denied_delivered + header_errors + nat_errors + dst_errors;
  }
  std::uint64_t failed() const {
    return missing + extra + frame_errors() + port_clashes;
  }
};

class Oracle {
 public:
  Oracle(const FlowExpect* expect, std::size_t lanes)
      : expect_(expect),
        owner_(expect->flows()),
        port_(expect->nat ? expect->flows() : 0) {
    for (std::size_t l = 0; l < lanes; ++l) {
      lanes_.push_back(std::make_unique<Lane>(expect->flows()));
    }
    Reset();
  }

  // Forgets every delivery, for the traffic of a fresh runtime.
  void Reset() {
    for (auto& o : owner_) {
      o.store(0, std::memory_order_relaxed);
    }
    for (auto& p : port_) {
      p.store(0, std::memory_order_relaxed);
    }
    for (auto& lane : lanes_) {
      for (auto& s : lane->last_seq) {
        s.store(0, std::memory_order_relaxed);
      }
      lane->counts = Lane::Counts{};
    }
  }

  // Called by lane `lane` only, for each frame it delivers, in order.
  // Relaxed atomics suffice for the cross-lane reads: a flow changes
  // workers only through the runtime's queues, whose locks order the
  // previous lane's stores before the next lane sees the flow.
  void Observe(std::size_t lane, const FrameObs& f) {
    Lane& me = *lanes_[lane];
    Lane::Counts& c = me.counts;
    ++c.delivered;
    const std::uint32_t flow = expect_->FlowOf(f.seq);
    // Stamps start above 0, so 0 means "nothing seen yet"; a duplicate or a
    // reordering both show as a stamp not above the last one.
    const auto tag = static_cast<std::uint8_t>(lane + 1);
    const std::uint8_t prev = owner_[flow].load(std::memory_order_relaxed);
    if (prev != tag) {
      if (prev != 0) {
        ++c.moves;
        if (f.seq <= lanes_[prev - 1]->last_seq[flow].load(std::memory_order_relaxed)) {
          ++c.order_errors;
        }
      }
      owner_[flow].store(tag, std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t>& last = me.last_seq[flow];
    if (f.seq <= last.load(std::memory_order_relaxed)) {
      ++c.order_errors;
    }
    last.store(f.seq, std::memory_order_relaxed);
    if (expect_->denied[flow] != 0) {
      ++c.denied_delivered;
    }
    if (f.ttl != expect_->ttl || !f.checksum_ok) {
      ++c.header_errors;
    }
    if (expect_->nat) {
      if (f.src_ip != expect_->nat_ip || f.src_port == 0) {
        ++c.nat_errors;
      } else {
        std::atomic<std::uint16_t>& port = port_[flow];
        const std::uint16_t known = port.load(std::memory_order_relaxed);
        if (known == 0) {
          port.store(f.src_port, std::memory_order_relaxed);
        } else if (known != f.src_port) {
          ++c.nat_errors;
        }
      }
      if (f.dst_ip != expect_->backend_ip[flow]) {
        ++c.dst_errors;
      }
    }
  }

  std::uint64_t delivered(std::size_t lane) const { return lanes_[lane]->counts.delivered; }

  // `offered` and `denied` count every packet the generator handed to the
  // runtime. With NAT, a port must belong to one flow.
  Verdict Judge(std::uint64_t offered, std::uint64_t denied) const {
    Verdict v;
    v.offered = offered;
    v.denied = denied;
    for (const auto& lane : lanes_) {
      const Lane::Counts& c = lane->counts;
      v.delivered += c.delivered;
      v.order_errors += c.order_errors;
      v.denied_delivered += c.denied_delivered;
      v.header_errors += c.header_errors;
      v.nat_errors += c.nat_errors;
      v.dst_errors += c.dst_errors;
      v.flow_moves += c.moves;
    }
    const std::uint64_t expected = offered - denied;
    if (v.delivered < expected) {
      v.missing = expected - v.delivered;
    } else {
      v.extra = v.delivered - expected;
    }
    std::vector<std::uint32_t> owner(1u << 16, 0);  // port -> flow + 1
    for (std::size_t flow = 0; flow < port_.size(); ++flow) {
      const std::uint16_t p = port_[flow].load(std::memory_order_relaxed);
      if (p == 0) {
        continue;
      }
      if (owner[p] == 0) {
        owner[p] = static_cast<std::uint32_t>(flow) + 1;
      } else {
        ++v.port_clashes;
      }
    }
    return v;
  }

 private:
  struct alignas(64) Lane {
    explicit Lane(std::size_t flows) : last_seq(flows) {}
    std::vector<std::atomic<std::uint64_t>> last_seq;  // per flow
    struct Counts {
      std::uint64_t delivered = 0;
      std::uint64_t order_errors = 0;
      std::uint64_t denied_delivered = 0;
      std::uint64_t header_errors = 0;
      std::uint64_t nat_errors = 0;
      std::uint64_t dst_errors = 0;
      std::uint64_t moves = 0;
    } counts;
  };

  const FlowExpect* expect_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::atomic<std::uint8_t>> owner_;  // per flow: last lane + 1
  std::vector<std::atomic<std::uint16_t>> port_;  // per flow NAT port
};

}  // namespace nfbench

#endif  // NFBENCH_NFBENCH_LIB_H_
