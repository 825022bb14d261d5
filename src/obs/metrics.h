// obs:: metrics — lock-free sharded counters, gauges, and log-linear cycle
// histograms behind a named registry with consistent scrape.
//
// The paper's claims are numbers (90–122 cycles per remote call, 4389-cycle
// recovery), so the repo needs first-class instrumentation at the isolation
// boundary, not just end-to-end bench timers. Design constraints, in order:
//
//   1. *Disarmed cost on the crossing path must be one relaxed load + a
//      predictable branch* — the same discipline LINSYS_FAULT_POINT uses.
//      Per-crossing cycle histograms are therefore gated on MetricsArmed():
//      benches arm them for a measurement phase; production-shaped runs pay
//      nothing but the flag check.
//   2. *The armed hot path takes no locks and shares no cache lines.* Every
//      metric is sharded: one cache-line-padded slot per worker (explicit
//      shard index, the net::Runtime arrangement) or per thread (TLS-assigned
//      shard for global metrics such as the sfi crossing histogram).
//   3. *Scrape() is a consistent snapshot.* Counters are monotone by
//      construction (per-shard monotone atomics, summed with acquire loads).
//      Histogram shards are read through a bounded-retry protocol keyed on
//      the shard's event count, so a snapshot never contains torn buckets:
//      sum(bucket counts) == count holds in every snapshot.
//
// Histogram buckets are log-linear (4 linear sub-buckets per power of two),
// exact below 4, covering the full uint64 cycle range in 252 buckets —
// ~12–19% relative bucket width, enough to place p50/p99 of a 30-cycle
// crossing or a 4k-cycle recovery without per-sample storage.
#ifndef LINSYS_SRC_OBS_METRICS_H_
#define LINSYS_SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace obs {

namespace internal {
extern std::atomic<bool> g_metrics_armed;
}  // namespace internal

// True while per-event cycle metrics are armed. The check is the entire
// disarmed cost: one relaxed load + a predictable branch.
inline bool MetricsArmed() {
  return internal::g_metrics_armed.load(std::memory_order_relaxed);
}

// Arms/disarms every per-event cycle metric at once.
void ArmMetrics(bool on);

// Stable per-thread shard assignment for metrics without a natural owner
// index: threads are numbered in first-use order, folded onto [0, shards).
std::size_t ThisThreadShard(std::size_t shards);

// Monotone counter, one cache-line-padded atomic per shard. Add() never
// takes a lock; Value() sums shard values with acquire loads, so totals are
// monotone across scrapes (each shard value only grows and later scrapes
// read later values).
class Counter {
 public:
  explicit Counter(std::size_t shards);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::size_t shard, std::uint64_t n) {
    shards_[shard % shard_count_].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc(std::size_t shard) { Add(shard, 1); }
  // TLS-sharded flavour for call sites with no worker index at hand.
  void Add(std::uint64_t n) { Add(ThisThreadShard(shard_count_), n); }
  void Inc() { Add(std::uint64_t{1}); }

  // Add plus exemplar: when `trace_id` != 0, stamps the counter's exemplar
  // cell with (n, trace_id) — the same last-writer-wins discipline as the
  // histogram bucket exemplars, two extra relaxed stores. A scrape can then
  // link "failovers happened this interval" to one concrete flow's trace
  // track.
  void AddWithExemplar(std::size_t shard, std::uint64_t n,
                       std::uint64_t trace_id) {
    Add(shard, n);
    if (trace_id != 0) {
      exemplar_.value.store(n, std::memory_order_relaxed);
      exemplar_.trace_id.store(trace_id, std::memory_order_relaxed);
    }
  }
  void IncWithExemplar(std::size_t shard, std::uint64_t trace_id) {
    AddWithExemplar(shard, 1, trace_id);
  }

  std::uint64_t Value() const;
  std::uint64_t ShardValue(std::size_t shard) const {
    return shards_[shard % shard_count_].v.load(std::memory_order_acquire);
  }
  // Most recent exemplar-tagged increment: {n, trace_id}; trace_id == 0
  // means no exemplar has ever been recorded.
  std::pair<std::uint64_t, std::uint64_t> Exemplar() const {
    return {exemplar_.value.load(std::memory_order_relaxed),
            exemplar_.trace_id.load(std::memory_order_relaxed)};
  }
  std::size_t shards() const { return shard_count_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  struct ExemplarCell {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> trace_id{0};
  };
  std::size_t shard_count_;
  std::unique_ptr<Cell[]> shards_;
  ExemplarCell exemplar_;
};

// Last-value gauge with per-shard cells. Additive reads (Sum — e.g. mempool
// occupancy summed over workers) and max reads (Max — e.g. queue high-water
// mark) are both provided; pick per metric.
class Gauge {
 public:
  explicit Gauge(std::size_t shards);

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::size_t shard, std::int64_t v) {
    shards_[shard % shard_count_].v.store(v, std::memory_order_release);
  }
  void Add(std::size_t shard, std::int64_t d) {
    shards_[shard % shard_count_].v.fetch_add(d, std::memory_order_relaxed);
  }
  // Monotone raise — lock-free max via CAS.
  void SetMax(std::size_t shard, std::int64_t v);

  std::int64_t Sum() const;
  std::int64_t Max() const;
  std::int64_t ShardValue(std::size_t shard) const {
    return shards_[shard % shard_count_].v.load(std::memory_order_acquire);
  }
  std::size_t shards() const { return shard_count_; }

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::size_t shard_count_;
  std::unique_ptr<Cell[]> shards_;
};

// Consistent read of one histogram (all shards pooled): bucket counts plus
// total count and value sum, with sum(buckets) == count guaranteed.
struct HistogramSnapshot {
  // The most recent exemplar-tagged sample that landed in `bucket`: its value
  // and the trace/flow id that was active when it was recorded. Links a p99
  // bucket back to the one flow's track in the trace export.
  struct BucketExemplar {
    std::size_t bucket = 0;
    std::uint64_t value = 0;
    std::uint64_t trace_id = 0;
  };

  std::vector<std::uint64_t> buckets;
  std::vector<BucketExemplar> exemplars;  // sparse; at most one per bucket
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  bool empty() const { return count == 0; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Nearest-rank percentile, linearly interpolated inside the bucket.
  double Percentile(double p) const;
  // "mean=... p50=... p99=... n=..." one-liner matching util::Samples.
  std::string Summary() const;
};

// Log-linear histogram of non-negative integer samples (cycle counts).
class Histogram {
 public:
  // 4 linear sub-buckets per power of two; values 0..3 land in exact
  // buckets; everything above 2^63-ish clamps into the last bucket.
  static constexpr unsigned kSubBits = 2;
  static constexpr std::size_t kBuckets = 252;

  explicit Histogram(std::size_t shards);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Hot path: 3 relaxed RMWs on shard-private cache lines. The count is
  // bumped *last* (release), so a concurrent scrape can detect an in-flight
  // record (bucket present, count not yet) and retry.
  void Record(std::size_t shard, std::uint64_t v) {
    Shard& s = shards_[shard % shard_count_];
    s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_release);
  }
  void Record(std::uint64_t v) { Record(ThisThreadShard(shard_count_), v); }

  // Record plus exemplar: when `trace_id` != 0, stamps the sample's bucket
  // exemplar cell with (v, trace_id) — two extra relaxed stores, no RMW,
  // last writer wins. Cells are histogram-global rather than per-shard: a
  // scrape wants "a recent sample's trace id per bucket", not one per
  // worker, and the race between the two stores only ever mismatches one
  // exemplar's value/id pairing, never the histogram itself.
  void RecordWithExemplar(std::size_t shard, std::uint64_t v,
                          std::uint64_t trace_id) {
    Record(shard, v);
    if (trace_id != 0) {
      ExemplarCell& cell = exemplars_[BucketIndex(v)];
      cell.value.store(v, std::memory_order_relaxed);
      cell.trace_id.store(trace_id, std::memory_order_relaxed);
    }
  }
  void RecordWithExemplar(std::uint64_t v, std::uint64_t trace_id) {
    RecordWithExemplar(ThisThreadShard(shard_count_), v, trace_id);
  }

  // Consistent snapshot: per shard, (count, buckets, count) are re-read
  // until the count is stable *and* the buckets sum to it — i.e. no record
  // was in flight across the reads. Bounded retries; on pathological writer
  // pressure the shard falls back to a bucket-census cut (count := what the
  // buckets say), which still never tears a bucket and stays monotone.
  HistogramSnapshot Snapshot() const;

  std::uint64_t Count() const;
  std::size_t shards() const { return shard_count_; }

  static std::size_t BucketIndex(std::uint64_t v);
  // Smallest value landing in bucket `idx`.
  static std::uint64_t BucketLowerBound(std::size_t idx);
  // One past the largest value of bucket `idx` (saturates at uint64 max).
  static std::uint64_t BucketUpperBound(std::size_t idx);

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
  };
  struct ExemplarCell {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> trace_id{0};
  };
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<ExemplarCell[]> exemplars_;  // kBuckets cells
};

// One scraped view of a registry: every metric, by kind, in registration
// order, plus the exporters.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
    std::vector<std::uint64_t> shards;
    // Most recent AddWithExemplar increment; trace_id == 0 means none.
    std::uint64_t exemplar_value = 0;
    std::uint64_t exemplar_trace_id = 0;
  };
  struct GaugeSample {
    std::string name;
    std::int64_t sum = 0;
    std::int64_t max = 0;
    std::vector<std::int64_t> shards;
  };
  struct HistogramSample {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // Prometheus text exposition (names sanitized: '.' -> '_'; histograms as
  // cumulative <name>_bucket{le=...} series plus _sum/_count; bucket and
  // counter exemplars appended OpenMetrics-style:
  // `... 5 # {trace_id="0x2a"} 117`).
  std::string ToPrometheus() const;
  // Machine-readable JSON: {"counters":{...},"gauges":{...},
  // "histograms":{name:{count,sum,mean,p50,p95,p99,p999,exemplars:[...]}}}.
  std::string ToJson() const;
};

// One *interval* view of a registry: what changed between the previous
// SnapshotDelta() call (or Registry construction) and now. Counters come
// with per-second rates; histogram deltas are per-bucket increases, so
// Percentile()/Summary() on them read as interval p50/p99 — "what did the
// last storm phase look like", not "everything since boot".
struct DeltaSnapshot {
  struct CounterDelta {
    std::string name;
    std::uint64_t delta = 0;  // increase over the interval
    double rate = 0.0;        // delta / interval_seconds
    // Current exemplar cell, surfaced only when the counter moved this
    // interval; trace_id == 0 means none.
    std::uint64_t exemplar_value = 0;
    std::uint64_t exemplar_trace_id = 0;
  };
  struct HistogramDelta {
    std::string name;
    // Per-bucket increases with sum(buckets) == count preserved; exemplars
    // are the *current* cells for buckets that moved this interval.
    HistogramSnapshot delta;
  };

  double interval_seconds = 0.0;
  std::vector<CounterDelta> counters;
  std::vector<Snapshot::GaugeSample> gauges;  // gauges are levels: current
  std::vector<HistogramDelta> histograms;

  // {"interval_seconds":...,"counters":{name:{delta,rate[,exemplar]}},
  //  "gauges":{...},
  //  "histograms":{name:{count,sum,mean,p50,p95,p99,p999,exemplars:[...]}}}.
  std::string ToJson() const;
};

// Named metric registry. Registration (GetOrCreate*) takes a mutex and
// returns a pointer that stays valid for the registry's lifetime — callers
// cache it once and the hot path never touches the registry again. The
// process-wide Global() registry carries cross-cutting metrics (sfi
// crossings, fault injection); components with instance lifetimes
// (net::Runtime) own a private Registry so sequential instances in one
// process don't bleed counts into each other.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  // Create-or-get by name. The shard count is fixed by the first caller;
  // later callers get the existing metric regardless of their `shards`.
  Counter* GetCounter(const std::string& name, std::size_t shards = 1);
  Gauge* GetGauge(const std::string& name, std::size_t shards = 1);
  Histogram* GetHistogram(const std::string& name, std::size_t shards = 1);

  // Callback gauge, evaluated at scrape time — for state owned elsewhere
  // (mempool occupancy) that should appear in exports without double
  // bookkeeping on the owner's hot path.
  void RegisterGaugeFn(const std::string& name,
                       std::function<std::int64_t()> fn);

  Snapshot Scrape() const;

  // Interval scrape: everything that changed since the previous
  // SnapshotDelta() (or since construction, the first time), advancing the
  // stored baseline. Scrape + delta run under one mutex hold, so the
  // baseline always matches exactly what the previous call returned.
  // Deltas are name-matched (a metric registered mid-interval deltas from
  // zero) and clamped at zero per bucket, preserving sum(buckets) == count.
  DeltaSnapshot SnapshotDelta();

 private:
  template <typename M>
  struct Entry {
    std::string name;
    std::unique_ptr<M> metric;
  };

  Snapshot ScrapeLocked() const;  // requires mu_ held

  mutable std::mutex mu_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
  std::vector<std::pair<std::string, std::function<std::int64_t()>>>
      gauge_fns_;
  Snapshot delta_base_;  // cumulative scrape taken by the previous call
  std::chrono::steady_clock::time_point delta_base_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace obs

#endif  // LINSYS_SRC_OBS_METRICS_H_
