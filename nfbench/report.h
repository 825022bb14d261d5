// Result printing: one human-readable line per metric (name, value, unit,
// sample count, and for timings the median and the supported tail), then
// the machine-readable JSON object as the last line of stdout.
#ifndef NFBENCH_REPORT_H_
#define NFBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "nfbench_lib.h"

namespace nfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them (see README.md
// for what each means per workload).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"tput_kops", "kop/s"}, {"lat_p50_us", "us"},
    {"lat_p90_us", "us"},     {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run. A layer a workload does not run
// reports 0.
inline constexpr MetricDef kPerLayer[] = {
    {"dispatch.call_us_p50", "us"},
    {"dispatch.call_us_p99", "us"},
    {"dispatch.busy_frac", "ratio"},
    {"dispatch.subbatches_per_call", "count"},
    {"queue.wait_us_p50", "us"},
    {"queue.wait_us_p90", "us"},
    {"sfi.crossing_ns_p50", "ns"},
    {"sfi.crossings_per_subbatch", "count"},
    {"op.pkts_per_subbatch", "count"},
    {"op.null0.ns_per_pkt", "ns"},
    {"op.null1.ns_per_pkt", "ns"},
    {"op.null2.ns_per_pkt", "ns"},
    {"op.null3.ns_per_pkt", "ns"},
    {"op.null4.ns_per_pkt", "ns"},
    {"op.firewall.ns_per_pkt", "ns"},
    {"op.ttl.ns_per_pkt", "ns"},
    {"op.conntrack.ns_per_pkt", "ns"},
    {"op.nat.ns_per_pkt", "ns"},
    {"op.tx.ns_per_pkt", "ns"},
    {"worker.0.busy_frac", "ratio"},
    {"worker.1.busy_frac", "ratio"},
    {"worker.pkt_share_max", "ratio"},
    {"ckpt.epoch_ms", "ms"},
    {"ckpt.stall_ms", "ms"},
    {"ckpt.capture_ms", "ms"},
    {"ckpt.save_ms.conntrack", "ms"},
    {"ckpt.save_ms.nat", "ms"},
    {"ckpt.install_ms", "ms"},
    {"ckpt.image_kb", "KB"},
    {"ckpt.failover_ms", "ms"},
    {"ckpt.load_ms.conntrack", "ms"},
    {"ckpt.load_ms.nat", "ms"},
    {"ckpt.ckpt_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.snapshot_kb", "KB"},
    {"ckpt.payload_copies", "count"},
    {"ckpt.back_refs", "count"},
    {"gen.late_us_p99", "us"},
    {"trace.closure_frac", "ratio"},
    {"trace.overhead_tput_frac", "ratio"},
    {"trace.overhead_lat_p50_frac", "ratio"},
};

class Report {
 public:
  // A plain value with the number of samples behind it.
  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t n) {
    values_[name] = Entry{value, unit};
    std::printf("metric %-30s %14.6f %-6s n=%llu\n", name.c_str(), value,
                unit.c_str(), static_cast<unsigned long long>(n));
  }

  // A timing: prints median, the supported tail and n; records `value`
  // (the median unless the metric is a fixed percentile) under `name`.
  void AddTiming(const std::string& name, double value, const Summary& s,
                 double scale, const std::string& unit) {
    values_[name] = Entry{value, unit};
    std::printf("metric %-30s %14.6f %-6s n=%llu p50=%.6f", name.c_str(), value,
                unit.c_str(), static_cast<unsigned long long>(s.n), s.p50 * scale);
    if (s.tail_q > 0) {
      std::printf(" p%g=%.6f", s.tail_q * 100, s.tail * scale);
    }
    std::printf("\n");
  }

  // A line that explains a number but is not a metric.
  static void Note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  // The last line of stdout. Missing metrics and non-finite values make the
  // run incorrect rather than producing invalid JSON.
  bool PrintJson(const MetricDef* defs, std::size_t count, bool correct,
                 std::uint64_t attempted, std::uint64_t failed) const {
    std::string metrics;
    for (std::size_t i = 0; i < count; ++i) {
      double v = 0;
      const auto it = values_.find(defs[i].name);
      if (it != values_.end()) {
        v = it->second.value;
      } else {
        std::fprintf(stderr, "nfbench: metric %s missing\n", defs[i].name);
        correct = false;
      }
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "nfbench: metric %s is not finite\n", defs[i].name);
        correct = false;
        v = 0;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", defs[i].name, v, defs[i].unit);
      metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return correct;
  }

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

}  // namespace nfbench

#endif  // NFBENCH_REPORT_H_
