#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace obs {

namespace internal {
std::atomic<bool> g_metrics_armed{false};
}  // namespace internal

void ArmMetrics(bool on) {
  internal::g_metrics_armed.store(on, std::memory_order_relaxed);
}

std::size_t ThisThreadShard(std::size_t shards) {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return shards == 0 ? 0 : id % shards;
}

// ---------------------------------------------------------------------------
// Counter

Counter::Counter(std::size_t shards)
    : shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Cell[]>(shard_count_)) {}

std::uint64_t Counter::Value() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    total += shards_[i].v.load(std::memory_order_acquire);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Gauge

Gauge::Gauge(std::size_t shards)
    : shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Cell[]>(shard_count_)) {}

void Gauge::SetMax(std::size_t shard, std::int64_t v) {
  std::atomic<std::int64_t>& cell = shards_[shard % shard_count_].v;
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Gauge::Sum() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    total += shards_[i].v.load(std::memory_order_acquire);
  }
  return total;
}

std::int64_t Gauge::Max() const {
  std::int64_t m = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    m = std::max(m, shards_[i].v.load(std::memory_order_acquire));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::size_t shards)
    : shard_count_(shards == 0 ? 1 : shards),
      shards_(std::make_unique<Shard[]>(shard_count_)),
      exemplars_(std::make_unique<ExemplarCell[]>(kBuckets)) {}

std::size_t Histogram::BucketIndex(std::uint64_t v) {
  constexpr std::uint64_t kSub = 1u << kSubBits;
  if (v < kSub) {
    return static_cast<std::size_t>(v);  // exact buckets 0..3
  }
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
  const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
  const std::size_t idx =
      ((static_cast<std::size_t>(msb) - 1) << kSubBits) +
      static_cast<std::size_t>(sub);
  return std::min(idx, kBuckets - 1);
}

std::uint64_t Histogram::BucketLowerBound(std::size_t idx) {
  constexpr std::uint64_t kSub = 1u << kSubBits;
  if (idx < kSub) {
    return idx;
  }
  const unsigned msb = static_cast<unsigned>(idx >> kSubBits) + 1;
  const std::uint64_t sub = idx & (kSub - 1);
  return (kSub + sub) << (msb - kSubBits);
}

std::uint64_t Histogram::BucketUpperBound(std::size_t idx) {
  if (idx + 1 >= kBuckets) {
    return ~std::uint64_t{0};
  }
  return BucketLowerBound(idx + 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kBuckets, 0);
  std::uint64_t local[kBuckets];
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const Shard& sh = shards_[s];
    std::uint64_t c1 = 0;
    std::uint64_t shard_sum = 0;
    std::uint64_t bucket_census = 0;
    // Bounded retry: a stable count with buckets summing to it means no
    // record was in flight across the reads (records bump buckets first and
    // count last, so an in-flight record makes the census exceed the count).
    for (int attempt = 0; attempt < 64; ++attempt) {
      c1 = sh.count.load(std::memory_order_acquire);
      bucket_census = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        local[b] = sh.buckets[b].load(std::memory_order_relaxed);
        bucket_census += local[b];
      }
      shard_sum = sh.sum.load(std::memory_order_relaxed);
      const std::uint64_t c2 = sh.count.load(std::memory_order_acquire);
      if (c1 == c2 && bucket_census == c1) {
        break;
      }
      c1 = c2;
    }
    // After the retry budget the bucket census *is* the cut: individual
    // buckets are untorn (whole-word atomics) and monotone, so taking the
    // census as the count keeps every snapshot invariant intact even under
    // pathological writer pressure.
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += local[b];
    }
    snap.count += bucket_census;
    snap.sum += shard_sum;
    (void)c1;
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t id =
        exemplars_[b].trace_id.load(std::memory_order_relaxed);
    if (id != 0 && snap.buckets[b] != 0) {
      snap.exemplars.push_back(
          {b, exemplars_[b].value.load(std::memory_order_relaxed), id});
    }
  }
  return snap;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    total += shards_[s].count.load(std::memory_order_acquire);
  }
  return total;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) {
      continue;
    }
    const std::uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      const double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      const double hi = static_cast<double>(Histogram::BucketUpperBound(b));
      const double frac =
          (target - static_cast<double>(prev)) /
          static_cast<double>(buckets[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return static_cast<double>(
      Histogram::BucketUpperBound(buckets.empty() ? 0 : buckets.size() - 1));
}

std::string HistogramSnapshot::Summary() const {
  if (count == 0) {
    return "(no samples)";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean=%.1f p50=%.1f p95=%.1f p99=%.1f n=%llu",
                Mean(), Percentile(50.0), Percentile(95.0), Percentile(99.0),
                static_cast<unsigned long long>(count));
  return buf;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::Global() {
  static Registry* g = new Registry();  // leaked: outlives static dtors
  return *g;
}

namespace {

template <typename Vec>
auto* FindOrNull(Vec& vec, const std::string& name) {
  for (auto& e : vec) {
    if (e.name == name) {
      return e.metric.get();
    }
  }
  return decltype(vec.front().metric.get()){nullptr};
}

}  // namespace

Counter* Registry::GetCounter(const std::string& name, std::size_t shards) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* existing = FindOrNull(counters_, name)) {
    return existing;
  }
  counters_.push_back({name, std::make_unique<Counter>(shards)});
  return counters_.back().metric.get();
}

Gauge* Registry::GetGauge(const std::string& name, std::size_t shards) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* existing = FindOrNull(gauges_, name)) {
    return existing;
  }
  gauges_.push_back({name, std::make_unique<Gauge>(shards)});
  return gauges_.back().metric.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::size_t shards) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* existing = FindOrNull(histograms_, name)) {
    return existing;
  }
  histograms_.push_back({name, std::make_unique<Histogram>(shards)});
  return histograms_.back().metric.get();
}

void Registry::RegisterGaugeFn(const std::string& name,
                               std::function<std::int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_fns_.emplace_back(name, std::move(fn));
}

Snapshot Registry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ScrapeLocked();
}

Snapshot Registry::ScrapeLocked() const {
  Snapshot snap;
  for (const auto& e : counters_) {
    Snapshot::CounterSample s;
    s.name = e.name;
    for (std::size_t i = 0; i < e.metric->shards(); ++i) {
      s.shards.push_back(e.metric->ShardValue(i));
      s.value += s.shards.back();
    }
    const auto [ex_value, ex_id] = e.metric->Exemplar();
    s.exemplar_value = ex_value;
    s.exemplar_trace_id = ex_id;
    snap.counters.push_back(std::move(s));
  }
  for (const auto& e : gauges_) {
    Snapshot::GaugeSample s;
    s.name = e.name;
    for (std::size_t i = 0; i < e.metric->shards(); ++i) {
      s.shards.push_back(e.metric->ShardValue(i));
    }
    s.sum = e.metric->Sum();
    s.max = e.metric->Max();
    snap.gauges.push_back(std::move(s));
  }
  for (const auto& [name, fn] : gauge_fns_) {
    Snapshot::GaugeSample s;
    s.name = name;
    s.sum = fn();
    s.max = s.sum;
    s.shards.push_back(s.sum);
    snap.gauges.push_back(std::move(s));
  }
  for (const auto& e : histograms_) {
    snap.histograms.push_back({e.name, e.metric->Snapshot()});
  }
  return snap;
}

namespace {

// Baseline lookup by name: metrics registered mid-interval delta from zero.
template <typename Vec>
const typename Vec::value_type* FindByName(const Vec& vec,
                                           const std::string& name) {
  for (const auto& s : vec) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace

DeltaSnapshot Registry::SnapshotDelta() {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot cur = ScrapeLocked();
  const auto now = std::chrono::steady_clock::now();

  DeltaSnapshot d;
  d.interval_seconds =
      std::chrono::duration<double>(now - delta_base_time_).count();

  for (const auto& c : cur.counters) {
    const auto* base = FindByName(delta_base_.counters, c.name);
    const std::uint64_t before = base != nullptr ? base->value : 0;
    DeltaSnapshot::CounterDelta cd;
    cd.name = c.name;
    cd.delta = c.value >= before ? c.value - before : 0;  // monotone; clamp
    cd.rate = d.interval_seconds > 0.0
                  ? static_cast<double>(cd.delta) / d.interval_seconds
                  : 0.0;
    // Exemplars surface only for counters that moved this interval — a
    // stale exemplar on a flat counter would point at an old flow.
    if (cd.delta > 0) {
      cd.exemplar_value = c.exemplar_value;
      cd.exemplar_trace_id = c.exemplar_trace_id;
    }
    d.counters.push_back(std::move(cd));
  }

  d.gauges = cur.gauges;  // gauges are levels, not rates: report current

  for (const auto& h : cur.histograms) {
    const auto* base = FindByName(delta_base_.histograms, h.name);
    DeltaSnapshot::HistogramDelta hd;
    hd.name = h.name;
    hd.delta.buckets.assign(h.hist.buckets.size(), 0);
    for (std::size_t b = 0; b < h.hist.buckets.size(); ++b) {
      const std::uint64_t before =
          base != nullptr && b < base->hist.buckets.size()
              ? base->hist.buckets[b]
              : 0;
      const std::uint64_t cur_b = h.hist.buckets[b];
      hd.delta.buckets[b] = cur_b >= before ? cur_b - before : 0;
      hd.delta.count += hd.delta.buckets[b];  // sum(buckets) == count
    }
    const std::uint64_t sum_before = base != nullptr ? base->hist.sum : 0;
    hd.delta.sum = h.hist.sum >= sum_before ? h.hist.sum - sum_before : 0;
    for (const auto& ex : h.hist.exemplars) {
      if (ex.bucket < hd.delta.buckets.size() &&
          hd.delta.buckets[ex.bucket] != 0) {
        hd.delta.exemplars.push_back(ex);
      }
    }
    d.histograms.push_back(std::move(hd));
  }

  delta_base_ = std::move(cur);
  delta_base_time_ = now;
  return d;
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

std::string PromName(const std::string& name) {
  std::string out = "linsys_";
  for (char c : name) {
    out += (c == '.' || c == '-') ? '_' : c;
  }
  return out;
}

void AppendJsonKey(std::string& out, const std::string& name) {
  out += '"';
  out += name;
  out += "\":";
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

const HistogramSnapshot::BucketExemplar* ExemplarFor(
    const HistogramSnapshot& h, std::size_t bucket) {
  for (const auto& ex : h.exemplars) {
    if (ex.bucket == bucket) {
      return &ex;
    }
  }
  return nullptr;
}

// The shared {count,sum,mean,p50,p95,p99,p999[,exemplars]} histogram body
// used by both the cumulative and the delta JSON exporters. p999 is the SLO
// tail quantile: on a delta it reads as "worst client-visible latency this
// window", which is what the ops server's /metrics/delta keys on.
void AppendHistogramJson(std::string& out, const HistogramSnapshot& h) {
  out += "{\"count\":" + std::to_string(h.count) +
         ",\"sum\":" + std::to_string(h.sum) + ",\"mean\":" + Num(h.Mean()) +
         ",\"p50\":" + Num(h.Percentile(50)) +
         ",\"p95\":" + Num(h.Percentile(95)) +
         ",\"p99\":" + Num(h.Percentile(99)) +
         ",\"p999\":" + Num(h.Percentile(99.9));
  if (!h.exemplars.empty()) {
    out += ",\"exemplars\":[";
    for (std::size_t i = 0; i < h.exemplars.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      const auto& ex = h.exemplars[i];
      out += "{\"bucket_le\":" +
             std::to_string(Histogram::BucketUpperBound(ex.bucket)) +
             ",\"value\":" + std::to_string(ex.value) + ",\"trace_id\":\"" +
             Hex(ex.trace_id) + "\"}";
    }
    out += ']';
  }
  out += '}';
}

}  // namespace

std::string Snapshot::ToPrometheus() const {
  std::string out;
  for (const auto& c : counters) {
    const std::string n = PromName(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value);
    // Counter exemplar, same OpenMetrics-style rendering as the histogram
    // bucket exemplars: the most recent tagged increment and its flow.
    if (c.exemplar_trace_id != 0) {
      out += " # {trace_id=\"" + Hex(c.exemplar_trace_id) + "\"} " +
             std::to_string(c.exemplar_value);
    }
    out += "\n";
    if (c.shards.size() > 1) {
      for (std::size_t i = 0; i < c.shards.size(); ++i) {
        out += n + "{shard=\"" + std::to_string(i) + "\"} " +
               std::to_string(c.shards[i]) + "\n";
      }
    }
  }
  for (const auto& g : gauges) {
    const std::string n = PromName(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + std::to_string(g.sum) + "\n";
  }
  for (const auto& h : histograms) {
    const std::string n = PromName(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.hist.buckets.size(); ++b) {
      if (h.hist.buckets[b] == 0) {
        continue;  // sparse export; Prometheus semantics stay intact
      }
      cum += h.hist.buckets[b];
      out += n + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
             std::to_string(cum);
      // OpenMetrics-style exemplar: the bucket's most recent tagged sample
      // and the trace/flow id it belongs to.
      if (const auto* ex = ExemplarFor(h.hist, b)) {
        out += " # {trace_id=\"" + Hex(ex->trace_id) + "\"} " +
               std::to_string(ex->value);
      }
      out += "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.hist.count) + "\n";
    out += n + "_sum " + std::to_string(h.hist.sum) + "\n";
    out += n + "_count " + std::to_string(h.hist.count) + "\n";
  }
  return out;
}

std::string Snapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, counters[i].name);
    out += std::to_string(counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, gauges[i].name);
    out += "{\"sum\":" + std::to_string(gauges[i].sum) +
           ",\"max\":" + std::to_string(gauges[i].max) + "}";
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, histograms[i].name);
    AppendHistogramJson(out, histograms[i].hist);
  }
  out += "}}";
  return out;
}

std::string DeltaSnapshot::ToJson() const {
  std::string out = "{\"interval_seconds\":" + Num(interval_seconds);
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, counters[i].name);
    out += "{\"delta\":" + std::to_string(counters[i].delta) +
           ",\"rate\":" + Num(counters[i].rate);
    if (counters[i].exemplar_trace_id != 0) {
      out += ",\"exemplar\":{\"value\":" +
             std::to_string(counters[i].exemplar_value) + ",\"trace_id\":\"" +
             Hex(counters[i].exemplar_trace_id) + "\"}";
    }
    out += "}";
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, gauges[i].name);
    out += "{\"sum\":" + std::to_string(gauges[i].sum) +
           ",\"max\":" + std::to_string(gauges[i].max) + "}";
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonKey(out, histograms[i].name);
    AppendHistogramJson(out, histograms[i].delta);
  }
  out += "}}";
  return out;
}

}  // namespace obs
