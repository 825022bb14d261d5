// Self-tests of the benchmark's own logic: the percentile rule, due-time
// matching, span self time, and the output oracle on doctored inputs.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "nfbench_lib.h"

namespace {

int g_failed = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failed;
  }
}

void TestPercentileRule() {
  using nfbench::TailLevel;
  Check(TailLevel(99) == 0, "99 samples support no tail percentile");
  Check(TailLevel(100) == 0.9, "100 samples: p90 has 10 beyond it");
  Check(TailLevel(999) == 0.9, "999 samples: p99 has only 9.99 beyond it");
  Check(TailLevel(1000) == 0.99, "1000 samples support p99");
  Check(TailLevel(10'000'000) == 0.999999, "1e7 samples support p99.9999");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  const nfbench::Summary s = nfbench::Summarize(v);
  Check(s.n == 1000, "sample count");
  Check(s.p50 == 500, "nearest-rank median of 1..1000");
  Check(s.tail_q == 0.99 && s.tail == 990, "p99 of 1..1000");
  Check(s.At(0.9) == 900, "p90 of 1..1000");

  // Weights count as repeated samples.
  const nfbench::Summary w = nfbench::Summarize(
      std::vector<nfbench::Weighted>{{5.0, 3}, {1.0, 1}, {9.0, 96}});
  Check(w.n == 100 && w.p50 == 9.0 && w.At(0.04) == 5.0 && w.At(0.01) == 1.0,
        "weighted quantiles");
  Check(std::isnan(nfbench::Summarize(std::vector<double>{}).p50), "empty median is NaN");

  // Interquartile mean: 8 values, the two lowest and two highest dropped.
  Check(nfbench::InterquartileMean({100, 1, 5, 4, 3, 6, 2, 90}) == 4.5,
        "interquartile mean drops a quarter at each end");
  Check(nfbench::InterquartileMean({2, 4}) == 3, "fewer than four values: plain mean");
  Check(std::isnan(nfbench::InterquartileMean({})), "empty interquartile mean is NaN");
}

void TestMatching() {
  nfbench::OpenLoopSchedule sched{1'000'000, 16'000.0, 100};
  Check(sched.DueNs(100) == 1'000'000, "first burst due at t0");
  Check(sched.DueNs(103) == 1'048'000, "burst k due at t0 + k * period");
  const std::vector<nfbench::Delivery> d = {
      {100, 20, 1'010'000},  // 10 us after its due time
      {100, 12, 1'012'000},  // the other worker's half of the same burst
      {103, 32, 1'050'500},  // 2.5 us late
      {104, 0, 9'999'999},   // an emptied sub-batch carries no packets
  };
  const auto lat = nfbench::MatchDeliveries(sched, d);
  Check(lat.size() == 3, "empty sub-batches are skipped");
  Check(lat[0].value == 10'000 && lat[0].weight == 20, "latency of first sub-batch");
  Check(lat[1].value == 12'000 && lat[1].weight == 12, "latency of second sub-batch");
  Check(lat[2].value == 2'500 && lat[2].weight == 32, "latency of a later burst");

  // Windows of two bursts: a stall that hits one window moves only it.
  std::vector<nfbench::Delivery> w;
  for (std::uint64_t b = 100; b < 106; ++b) {
    const std::int64_t lateness = b == 102 || b == 103 ? 900'000 : 1'000 * (b - 99);
    w.push_back({b, 32, sched.DueNs(b) + lateness});
  }
  const nfbench::Summary p50 = nfbench::WindowedQuantile(sched, w, 32'000, 0.5);
  Check(p50.n == 3, "one value per window");
  Check(p50.p50 == 5'000, "median over windows ignores the stalled window");
  Check(nfbench::WindowedQuantile(sched, w, 32'000, 1.0).At(1.0) == 900'000,
        "the stalled window keeps its own maximum");
}

void TestSelfTime() {
  using nfbench::Interval;
  using nfbench::SelfTime;
  Check(SelfTime({0, 100}, {}) == 100, "no children: self = duration");
  Check(SelfTime({0, 100}, {{10, 30}, {50, 60}}) == 70, "disjoint children");
  Check(SelfTime({0, 100}, {{10, 40}, {30, 60}}) == 50, "overlapping children count once");
  Check(SelfTime({0, 100}, {{-20, 10}, {90, 130}}) == 80, "children clipped to the parent");
  Check(SelfTime({0, 100}, {{20, 30}, {10, 50}}) == 60, "unsorted nested children");
}

// A two-flow middlebox stream: flow 0 allowed, flow 1 denied.
nfbench::FlowExpect TwoFlows() {
  nfbench::FlowExpect e;
  e.warm_flow = {0, 1};
  e.warm_base = 32;
  e.draw_base = 1'000'000;
  e.denied = {0, 1};
  e.ttl = 63;
  e.nat = true;
  e.nat_ip = 0xcb007101u;
  e.backend_ip = {0xac100003u, 0xac100005u};
  return e;
}

// Packets 32..39 alternate flows 0,1; only flow 0's are delivered, in order.
std::vector<nfbench::FrameObs> GoodStream() {
  std::vector<nfbench::FrameObs> out;
  for (std::uint64_t seq = 32; seq < 40; seq += 2) {
    nfbench::FrameObs f;
    f.seq = seq;
    f.src_ip = 0xcb007101u;
    f.src_port = 20000;
    f.dst_ip = 0xac100003u;
    f.ttl = 63;
    out.push_back(f);
  }
  return out;
}

nfbench::Verdict Run(const nfbench::FlowExpect& e,
                     const std::vector<nfbench::FrameObs>& stream) {
  nfbench::Oracle oracle(&e, 1);
  for (const auto& f : stream) {
    oracle.Observe(0, f);
  }
  return oracle.Judge(8, 4);
}

void TestOracle() {
  const nfbench::FlowExpect e = TwoFlows();
  Check(Run(e, GoodStream()).failed() == 0, "clean stream passes");

  auto dropped = GoodStream();
  dropped.erase(dropped.begin() + 1);
  const nfbench::Verdict vd = Run(e, dropped);
  Check(vd.missing == 1 && vd.failed() == 1, "one dropped packet is caught");

  auto swapped = GoodStream();
  std::swap(swapped[1], swapped[2]);
  Check(Run(e, swapped).failed() > 0, "a swapped pair within a flow is caught");

  auto nat_ip = GoodStream();
  nat_ip[2].src_ip = 0x0a000001u;
  Check(Run(e, nat_ip).failed() > 0, "a source not rewritten to the NAT IP is caught");

  auto nat_port = GoodStream();
  nat_port[3].src_port = 20001;
  Check(Run(e, nat_port).failed() > 0, "a per-flow NAT port that changes is caught");

  auto backend = GoodStream();
  backend[0].dst_ip = 0xac100004u;
  Check(Run(e, backend).failed() > 0, "a destination other than the Maglev pick is caught");

  auto denied = GoodStream();
  denied.push_back(denied.back());
  denied.back().seq = 39;  // flow 1, which the rule list denies
  Check(Run(e, denied).failed() > 0, "a delivered packet of a denied flow is caught");

  auto ttl = GoodStream();
  ttl[0].ttl = 64;
  Check(Run(e, ttl).failed() > 0, "a TTL that was not decremented is caught");

  // Two flows given one NAT port, on different workers.
  nfbench::FlowExpect two = TwoFlows();
  two.denied = {0, 0};
  two.backend_ip = {0xac100003u, 0xac100003u};
  nfbench::Oracle clash(&two, 2);
  for (auto f : GoodStream()) {
    clash.Observe(0, f);
    f.seq += 1;  // flow 1
    clash.Observe(1, f);
  }
  Check(clash.Judge(8, 0).port_clashes == 1, "a NAT port shared by two flows is caught");

  // One flow that moves between workers in order (as a steal moves it) is
  // counted, not failed; a move that overtakes the old worker is caught.
  const auto good = GoodStream();
  nfbench::Oracle moved(&e, 2);
  moved.Observe(0, good[0]);
  moved.Observe(1, good[1]);
  moved.Observe(1, good[2]);
  moved.Observe(0, good[3]);
  const nfbench::Verdict vm = moved.Judge(8, 4);
  Check(vm.failed() == 0 && vm.flow_moves == 2, "an in-order move between workers passes");

  nfbench::Oracle overtaken(&e, 2);
  overtaken.Observe(0, good[0]);
  overtaken.Observe(1, good[2]);
  overtaken.Observe(0, good[1]);
  overtaken.Observe(1, good[3]);
  Check(overtaken.Judge(8, 4).order_errors == 1,
        "a packet delivered after a later one on another worker is caught");

  // Reset forgets a previous runtime's traffic, whose stamps start again.
  nfbench::Oracle reused(&e, 1);
  for (const auto& f : good) {
    reused.Observe(0, f);
  }
  reused.Reset();
  for (const auto& f : good) {
    reused.Observe(0, f);
  }
  Check(reused.Judge(8, 4).failed() == 0, "a reset oracle accepts the same stamps again");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestMatching();
  TestSelfTime();
  TestOracle();
  if (g_failed == 0) {
    std::printf("nfbench selftest: all checks passed\n");
    return 0;
  }
  return 1;
}
