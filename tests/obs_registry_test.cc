// obs::Registry / Counter / Histogram and callback gauges — correctness of
// the sharded lock-free metrics, with emphasis on the consistency contract: scrapes
// taken while writers hammer the metrics must see monotone counters and
// never a torn histogram (sum of buckets == count in every snapshot).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace {

TEST(Counter, ShardedAddsSum) {
  obs::Counter c(4);
  c.Add(0, 5);
  c.Add(1, 7);
  c.Add(5, 2);  // shard index folds mod 4 -> shard 1
  EXPECT_EQ(c.Value(), 14u);
  EXPECT_EQ(c.ShardValue(0), 5u);
  EXPECT_EQ(c.ShardValue(1), 9u);
}

TEST(Counter, ConcurrentIncrementsAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 50000;
  obs::Counter c(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        c.Inc(static_cast<std::size_t>(t));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(Histogram, BucketBoundariesExactBelowFour) {
  // Values 0..3 land in exact singleton buckets.
  for (std::uint64_t v = 0; v < 4; ++v) {
    const std::size_t idx = obs::Histogram::BucketIndex(v);
    EXPECT_EQ(obs::Histogram::BucketLowerBound(idx), v);
    EXPECT_EQ(obs::Histogram::BucketUpperBound(idx), v + 1);
  }
}

TEST(Histogram, BucketIndexConsistentWithBounds) {
  // For a spread of magnitudes, v must land inside [lower, upper) of its
  // own bucket, and bucket lower bounds must be strictly increasing.
  std::vector<std::uint64_t> probes = {0,    1,     3,       4,      5,
                                       7,    8,     100,     1023,   1024,
                                       4096, 65537, 1u << 30};
  probes.push_back(std::uint64_t{1} << 40);
  probes.push_back(std::uint64_t{1} << 62);
  for (std::uint64_t v : probes) {
    const std::size_t idx = obs::Histogram::BucketIndex(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << "v=" << v;
    EXPECT_GE(v, obs::Histogram::BucketLowerBound(idx)) << "v=" << v;
    EXPECT_LT(v, obs::Histogram::BucketUpperBound(idx)) << "v=" << v;
  }
  for (std::size_t idx = 1; idx < obs::Histogram::kBuckets; ++idx) {
    EXPECT_LT(obs::Histogram::BucketLowerBound(idx - 1),
              obs::Histogram::BucketLowerBound(idx));
  }
}

TEST(Histogram, SnapshotStatisticsMatchRecords) {
  obs::Histogram h(2);
  std::uint64_t expected_sum = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.Record(v % 2, v);
    expected_sum += v;
  }
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : snap.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, snap.count);
  // Median of 0..999 — allow log-linear bucket width (~12.5% at that size).
  EXPECT_NEAR(snap.Percentile(50.0), 500.0, 80.0);
  EXPECT_NEAR(snap.Mean(), 499.5, 0.5);
}

// The core consistency claim: scraping while writers are mid-Record never
// yields a snapshot whose buckets disagree with its count, and repeated
// scrapes observe monotone counts.
TEST(Histogram, SnapshotConsistentUnderConcurrentWriters) {
  obs::Histogram h(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop, t] {
      std::uint64_t v = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        h.Record(static_cast<std::size_t>(t), v);
        v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
        v >>= 32;
      }
    });
  }

  // Keep scraping until the writers have demonstrably made progress (on a
  // single-CPU host 200 back-to-back scrapes can all land before any writer
  // is ever scheduled), bounded by a wall-clock deadline.
  std::uint64_t last_count = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int scrape = 0; scrape < 200 || last_count == 0; ++scrape) {
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    const obs::HistogramSnapshot snap = h.Snapshot();
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : snap.buckets) {
      bucket_total += b;
    }
    ASSERT_EQ(bucket_total, snap.count) << "torn snapshot at scrape "
                                        << scrape;
    ASSERT_GE(snap.count, last_count) << "count went backwards";
    last_count = snap.count;
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_GT(last_count, 0u);
}

TEST(Registry, GetOrCreateReturnsStablePointers) {
  obs::Registry reg;
  obs::Counter* a = reg.GetCounter("x.total", 2);
  obs::Counter* b = reg.GetCounter("x.total", 8);  // shards fixed by first
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->shards(), 2u);
  EXPECT_NE(reg.GetCounter("y.total"), a);
  obs::Histogram* h1 = reg.GetHistogram("x.cycles", 2);
  EXPECT_EQ(reg.GetHistogram("x.cycles"), h1);
}

TEST(Registry, ScrapeAndExporters) {
  obs::Registry reg;
  reg.GetCounter("demo.calls_total")->Add(0, 3);
  reg.RegisterGaugeFn("demo.depth", [] { return std::int64_t{9}; });
  reg.GetHistogram("demo.cycles")->Record(0, 100);
  reg.RegisterGaugeFn("demo.fn_gauge", [] { return std::int64_t{42}; });

  const obs::Snapshot snap = reg.Scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "demo.calls_total");
  EXPECT_EQ(snap.counters[0].value, 3u);
  // Every callback gauge surfaces at scrape time.
  bool saw_fn_gauge = false;
  for (const auto& g : snap.gauges) {
    saw_fn_gauge = saw_fn_gauge || (g.name == "demo.fn_gauge" && g.value == 42);
  }
  EXPECT_TRUE(saw_fn_gauge);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);

  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("demo_calls_total 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("demo_cycles_count 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos) << prom;

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"demo.calls_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
}

TEST(Metrics, ArmDisarmFlag) {
  EXPECT_FALSE(obs::MetricsArmed());
  obs::ArmMetrics(true);
  EXPECT_TRUE(obs::MetricsArmed());
  obs::ArmMetrics(false);
  EXPECT_FALSE(obs::MetricsArmed());
}

TEST(Histogram, ExemplarsLinkLastSampleToTraceId) {
  obs::Histogram h(2);
  h.Record(0, 100);  // plain record: no exemplar for this bucket
  h.RecordWithExemplar(0, 5000, 0xabcULL);
  h.RecordWithExemplar(1, 5100, 0xdefULL);  // same bucket: last writer wins

  const obs::HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 3u);
  bool saw_exemplar = false;
  for (const auto& ex : snap.exemplars) {
    EXPECT_NE(ex.trace_id, 0u);  // trace_id 0 never surfaces
    if (ex.value == 5100 && ex.trace_id == 0xdefULL) {
      saw_exemplar = true;
      EXPECT_EQ(obs::Histogram::BucketIndex(5100), ex.bucket);
    }
  }
  EXPECT_TRUE(saw_exemplar);
  // The 100-cycle bucket was only ever plain-Recorded: no exemplar for it.
  for (const auto& ex : snap.exemplars) {
    EXPECT_NE(ex.bucket, obs::Histogram::BucketIndex(100));
  }
}

TEST(Registry, SnapshotDeltaReportsOnlyTheInterval) {
  obs::Registry reg;
  obs::Counter* c = reg.GetCounter("d.calls_total");
  obs::Histogram* h = reg.GetHistogram("d.cycles");
  reg.RegisterGaugeFn("d.depth", [] { return std::int64_t{7}; });
  c->Add(0, 10);
  h->Record(0, 50);

  const obs::DeltaSnapshot first = reg.SnapshotDelta();
  EXPECT_GT(first.interval_seconds, 0.0);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].delta, 10u);
  EXPECT_GT(first.counters[0].rate, 0.0);
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].delta.count, 1u);

  // Nothing happened since: the next delta is all-zero, but gauges still
  // report their current level (a gauge has no meaningful delta).
  const obs::DeltaSnapshot idle = reg.SnapshotDelta();
  EXPECT_EQ(idle.counters[0].delta, 0u);
  EXPECT_EQ(idle.histograms[0].delta.count, 0u);
  bool saw_gauge = false;
  for (const auto& g : idle.gauges) {
    saw_gauge = saw_gauge || (g.name == "d.depth" && g.value == 7);
  }
  EXPECT_TRUE(saw_gauge);

  // Increment again: only the new work shows, not the cumulative total.
  c->Add(0, 3);
  h->Record(0, 60);
  h->Record(0, 70);
  const obs::DeltaSnapshot second = reg.SnapshotDelta();
  EXPECT_EQ(second.counters[0].delta, 3u);
  EXPECT_EQ(second.histograms[0].delta.count, 2u);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : second.histograms[0].delta.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, 2u);
}

TEST(Registry, SnapshotDeltaJsonShape) {
  obs::Registry reg;
  reg.GetCounter("d.calls_total")->Add(0, 4);
  reg.GetHistogram("d.cycles")->RecordWithExemplar(0, 900, 0x42ULL);
  const obs::DeltaSnapshot d = reg.SnapshotDelta();
  const std::string json = d.ToJson();
  EXPECT_NE(json.find("\"interval_seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"delta\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":\"0x42\""), std::string::npos) << json;
}

// Delta scrapes under concurrent writers: every interval must be internally
// consistent (bucket deltas sum to the count delta, never "negative" via
// underflow wraparound) and the interval deltas must add back up to the
// cumulative totals once the writers stop.
TEST(Registry, SnapshotDeltaConsistentUnderConcurrentWriters) {
  obs::Registry reg;
  obs::Counter* c = reg.GetCounter("d.calls_total", 4);
  obs::Histogram* h = reg.GetHistogram("d.cycles", 4);
  (void)reg.SnapshotDelta();  // zero the baseline before the writers start

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t v = static_cast<std::uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        c->Inc(static_cast<std::size_t>(t));
        h->Record(static_cast<std::size_t>(t), v & 0xffff);
        v = v * 2862933555777941757ULL + 3037000493ULL;
        v >>= 16;
      }
    });
  }

  std::uint64_t counter_delta_sum = 0;
  std::uint64_t hist_delta_sum = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int scrape = 0; scrape < 100 || counter_delta_sum == 0; ++scrape) {
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    const obs::DeltaSnapshot d = reg.SnapshotDelta();
    ASSERT_EQ(d.counters.size(), 1u);
    // uint64 underflow from a non-monotone read would produce a huge delta.
    ASSERT_LT(d.counters[0].delta, 1ULL << 60) << "underflowed delta";
    counter_delta_sum += d.counters[0].delta;
    ASSERT_EQ(d.histograms.size(), 1u);
    const obs::HistogramSnapshot& hd = d.histograms[0].delta;
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : hd.buckets) {
      ASSERT_LT(b, 1ULL << 60) << "underflowed bucket delta";
      bucket_total += b;
    }
    ASSERT_EQ(bucket_total, hd.count) << "torn delta at scrape " << scrape;
    hist_delta_sum += hd.count;
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  // Drain the tail interval, then the per-interval deltas must reconstruct
  // the cumulative totals exactly.
  const obs::DeltaSnapshot tail = reg.SnapshotDelta();
  counter_delta_sum += tail.counters[0].delta;
  hist_delta_sum += tail.histograms[0].delta.count;
  EXPECT_EQ(counter_delta_sum, c->Value());
  EXPECT_EQ(hist_delta_sum, h->Snapshot().count);
  EXPECT_GT(counter_delta_sum, 0u);
}

TEST(Metrics, ThisThreadShardStableWithinThread) {
  const std::size_t a = obs::ThisThreadShard(8);
  const std::size_t b = obs::ThisThreadShard(8);
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 8u);
}

// --- log-linear edge bins ---------------------------------------------------
// The decomposition SLO header leans on Percentile() at the extremes: p99.9
// of a skewed interval often lands exactly on a bucket edge, outliers clamp
// into the overflow bucket, and a quiet interval snapshots with zero samples.
// Pin the behaviour at each edge.

TEST(Histogram, PercentileOnBucketBoundaryStaysInsideBucket) {
  // 999 samples in one bucket, 1 sample in a much higher bucket: the p99.9
  // rank falls exactly on the seam between the two populations. The
  // interpolated answer must come from one of the two occupied buckets —
  // never from the empty space between them.
  obs::Histogram h(1);
  const std::uint64_t low = 100;
  const std::size_t hi_idx = obs::Histogram::BucketIndex(1 << 20);
  const std::uint64_t hi_lo = obs::Histogram::BucketLowerBound(hi_idx);
  for (int i = 0; i < 999; ++i) {
    h.Record(0, low);
  }
  h.Record(0, hi_lo);  // exactly on its bucket's lower boundary
  const obs::HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 1000u);

  const double p999 = snap.Percentile(99.9);
  const std::size_t low_idx = obs::Histogram::BucketIndex(low);
  const double low_lo =
      static_cast<double>(obs::Histogram::BucketLowerBound(low_idx));
  const double low_hi =
      static_cast<double>(obs::Histogram::BucketUpperBound(low_idx));
  const double hi_hi =
      static_cast<double>(obs::Histogram::BucketUpperBound(hi_idx));
  const bool in_low = p999 >= low_lo && p999 <= low_hi;
  const bool in_hi = p999 >= static_cast<double>(hi_lo) && p999 <= hi_hi;
  EXPECT_TRUE(in_low || in_hi) << "p99.9=" << p999;
  // One rank further must be in (or above the start of) the high bucket.
  EXPECT_GE(snap.Percentile(100.0), static_cast<double>(hi_lo));
  // And the boundary value itself must be counted in its own bucket: the
  // index of hi_lo is hi_idx, not hi_idx - 1.
  EXPECT_EQ(obs::Histogram::BucketIndex(hi_lo), hi_idx);
}

TEST(Histogram, OverflowBucketQuantilesAreFiniteAndOrdered) {
  // Everything near 2^64 clamps into the last bucket; quantiles there must
  // stay finite, ordered, and inside the bucket's [lower, saturated-upper]
  // range rather than overflowing the double math.
  obs::Histogram h(1);
  const std::uint64_t huge = ~std::uint64_t{0} - 1;
  for (int i = 0; i < 8; ++i) {
    h.Record(0, huge);
  }
  h.Record(0, ~std::uint64_t{0});
  const obs::HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, 9u);

  const std::size_t last = obs::Histogram::BucketIndex(~std::uint64_t{0});
  ASSERT_LT(last, obs::Histogram::kBuckets);
  const double lo = static_cast<double>(obs::Histogram::BucketLowerBound(last));
  const double hi = static_cast<double>(obs::Histogram::BucketUpperBound(last));
  for (double p : {50.0, 99.0, 99.9, 100.0}) {
    const double q = snap.Percentile(p);
    EXPECT_TRUE(std::isfinite(q)) << "p" << p;
    EXPECT_GE(q, lo) << "p" << p;
    EXPECT_LE(q, hi) << "p" << p;
  }
  EXPECT_LE(snap.Percentile(50.0), snap.Percentile(99.9));
  // The upper bound of the overflow bucket saturates instead of wrapping.
  EXPECT_GE(obs::Histogram::BucketUpperBound(last),
            obs::Histogram::BucketLowerBound(last));
}

TEST(Histogram, ZeroSampleSnapshotIsInert) {
  // A quiet delta interval produces exactly this snapshot; every consumer
  // (SLO header, Summary, Mean) must get zeros, not NaNs or divide faults.
  obs::Histogram h(2);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.Percentile(50.0), 0.0);
  EXPECT_EQ(snap.Percentile(99.9), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
  EXPECT_EQ(snap.Summary(), "(no samples)");
  std::uint64_t total = 0;
  for (std::uint64_t b : snap.buckets) {
    total += b;
  }
  EXPECT_EQ(total, 0u);
}

}  // namespace
