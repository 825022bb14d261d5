// bench_compare — CI regression gate over BENCH_<name>.json files.
//
// Diffs a fresh bench run against a committed baseline and fails (exit 1)
// when any cycle metric regressed by more than its threshold:
//
//   bench_compare [options] baseline.json fresh.json
//
//   --threshold P      default regression threshold, percent (default 10)
//   --metric SUB=P     per-metric threshold: first --metric whose SUB is a
//                      substring of the metric name wins over --threshold
//   --noise-floor A    ignore regressions whose absolute delta is below A
//                      (same unit as the metric, i.e. cycles) — the 1-core
//                      CI runner jitters small numbers
//   --ignore SUB       skip metrics whose name contains SUB (repeatable)
//   --only SUB         compare only metrics whose name contains SUB
//                      (repeatable; the CI hard gates use this to promote
//                      a few metrics without dragging the noisy rest in)
//   --min NAME=V       fail unless the fresh run's metric NAME (exact
//                      match) is present, numeric, and >= V — the floor
//                      gate for higher-is-better metrics like
//                      fused_vs_interpreted_speedup, which the
//                      higher-is-worse delta comparison cannot express
//                      (repeatable)
//   --warn-only        report regressions but exit 0 (parallel benches on
//                      the 1-core runner); --min floors still fail
//   --refresh-baselines
//                      instead of gating, overwrite baseline.json with the
//                      fresh run (after printing the per-metric deltas, so
//                      the accepted changes are on the record). --min
//                      floors still apply: a fresh run that violates a
//                      floor is refused, not committed.
//
// Metrics are read from the "metrics" object: plain numbers compare
// directly, Samples-style objects compare their "p50" (a mean lets one
// preempted sample decide the comparison). Higher is worse
// (cycle costs); improvements never fail. A metric present in the baseline
// but missing from the fresh run fails the gate — a silently vanished
// number is how regressions hide. Exit codes: 0 ok, 1 regression/missing,
// 2 usage or parse error.
//
// Baseline refresh: re-run the bench with LINSYS_BENCH_QUICK=1 on the CI
// runner class, then
//
//   bench_compare --refresh-baselines [--min ...] \
//       bench/baselines/BENCH_<name>.json fresh.json
//
// prints the accepted deltas and overwrites the committed baseline (see
// README §Observability). No hand-copying JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/json_mini.h"

namespace {

using jsonmini::JsonParser;
using jsonmini::JsonPtr;
using jsonmini::JsonValue;

struct MetricRule {
  std::string substring;
  double threshold_pct = 0;
};

struct MinRule {
  std::string name;  // exact metric name
  double floor = 0;
};

struct Options {
  double threshold_pct = 10.0;
  double noise_floor = 0.0;
  std::vector<MetricRule> metric_rules;
  std::vector<std::string> ignores;
  std::vector<std::string> onlys;
  std::vector<MinRule> min_rules;
  bool warn_only = false;
  bool refresh = false;
  std::string baseline_path;
  std::string fresh_path;
};

JsonPtr LoadJson(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open";
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    *error = "empty file";
    return nullptr;
  }
  JsonParser parser(text);
  return parser.Parse(error);
}

// A metric's comparable value: a plain number, or a Samples-style object's
// "p50". Returns false for anything else (non-numeric entries are skipped).
bool MetricValue(const JsonValue& v, double* out) {
  if (v.kind == JsonValue::Kind::kNumber) {
    *out = v.number;
    return true;
  }
  if (v.kind == JsonValue::Kind::kObject) {
    const JsonValue* p50 = v.Find("p50");
    if (p50 != nullptr && p50->kind == JsonValue::Kind::kNumber) {
      *out = p50->number;
      return true;
    }
  }
  return false;
}

double ThresholdFor(const Options& opt, const std::string& name) {
  for (const MetricRule& rule : opt.metric_rules) {
    if (name.find(rule.substring) != std::string::npos) {
      return rule.threshold_pct;
    }
  }
  return opt.threshold_pct;
}

bool Ignored(const Options& opt, const std::string& name) {
  for (const std::string& sub : opt.ignores) {
    if (name.find(sub) != std::string::npos) {
      return true;
    }
  }
  if (!opt.onlys.empty()) {
    for (const std::string& sub : opt.onlys) {
      if (name.find(sub) != std::string::npos) {
        return false;
      }
    }
    return true;  // an --only allowlist excludes everything else
  }
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare [--threshold P] [--metric SUB=P] "
      "[--noise-floor A] [--ignore SUB] [--only SUB] [--min NAME=V] "
      "[--warn-only] [--refresh-baselines] baseline.json fresh.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--threshold") {
      const char* v = next("--threshold");
      if (v == nullptr) return Usage();
      opt.threshold_pct = std::atof(v);
    } else if (arg == "--noise-floor") {
      const char* v = next("--noise-floor");
      if (v == nullptr) return Usage();
      opt.noise_floor = std::atof(v);
    } else if (arg == "--metric") {
      const char* v = next("--metric");
      if (v == nullptr) return Usage();
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        std::fprintf(stderr, "bench_compare: --metric wants SUB=P, got %s\n",
                     v);
        return Usage();
      }
      opt.metric_rules.push_back({std::string(v, eq - v), std::atof(eq + 1)});
    } else if (arg == "--ignore") {
      const char* v = next("--ignore");
      if (v == nullptr) return Usage();
      opt.ignores.push_back(v);
    } else if (arg == "--only") {
      const char* v = next("--only");
      if (v == nullptr) return Usage();
      opt.onlys.push_back(v);
    } else if (arg == "--min") {
      const char* v = next("--min");
      if (v == nullptr) return Usage();
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v) {
        std::fprintf(stderr, "bench_compare: --min wants NAME=V, got %s\n", v);
        return Usage();
      }
      opt.min_rules.push_back({std::string(v, eq - v), std::atof(eq + 1)});
    } else if (arg == "--warn-only") {
      opt.warn_only = true;
    } else if (arg == "--refresh-baselines") {
      opt.refresh = true;
    } else if (arg == "--help") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown option %s\n", arg.c_str());
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    return Usage();
  }
  opt.baseline_path = paths[0];
  opt.fresh_path = paths[1];

  std::string error;
  JsonPtr baseline = LoadJson(opt.baseline_path, &error);
  if (!baseline) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", opt.baseline_path.c_str(),
                 error.c_str());
    return 2;
  }
  JsonPtr fresh = LoadJson(opt.fresh_path, &error);
  if (!fresh) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", opt.fresh_path.c_str(),
                 error.c_str());
    return 2;
  }
  const JsonValue* base_metrics =
      baseline->kind == JsonValue::Kind::kObject ? baseline->Find("metrics")
                                                 : nullptr;
  const JsonValue* fresh_metrics =
      fresh->kind == JsonValue::Kind::kObject ? fresh->Find("metrics")
                                              : nullptr;
  if (base_metrics == nullptr ||
      base_metrics->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_compare: %s: no \"metrics\" object\n",
                 opt.baseline_path.c_str());
    return 2;
  }
  if (fresh_metrics == nullptr ||
      fresh_metrics->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_compare: %s: no \"metrics\" object\n",
                 opt.fresh_path.c_str());
    return 2;
  }

  std::printf("bench_compare: %s vs %s (default threshold %.1f%%, noise "
              "floor %.1f)\n",
              opt.baseline_path.c_str(), opt.fresh_path.c_str(),
              opt.threshold_pct, opt.noise_floor);
  std::size_t compared = 0;
  std::size_t regressions = 0;
  for (const auto& [name, base_value_ptr] : base_metrics->object) {
    if (Ignored(opt, name)) {
      continue;
    }
    double base_value = 0;
    if (!MetricValue(*base_value_ptr, &base_value)) {
      continue;  // non-numeric baseline entry — not comparable
    }
    const JsonValue* fresh_entry = fresh_metrics->Find(name);
    if (fresh_entry == nullptr) {
      std::printf("  MISSING  %-36s baseline=%.3f, absent from fresh run\n",
                  name.c_str(), base_value);
      ++regressions;
      continue;
    }
    double fresh_value = 0;
    if (!MetricValue(*fresh_entry, &fresh_value)) {
      std::printf("  MISSING  %-36s baseline=%.3f, fresh entry not numeric\n",
                  name.c_str(), base_value);
      ++regressions;
      continue;
    }
    ++compared;
    const double delta = fresh_value - base_value;
    const double pct = base_value != 0 ? delta / base_value * 100.0 : 0.0;
    const double threshold = ThresholdFor(opt, name);
    const bool over = pct > threshold &&
                      (opt.noise_floor <= 0 || delta >= opt.noise_floor) &&
                      base_value != 0;
    std::printf("  %s  %-36s %12.3f -> %12.3f  %+7.2f%% (limit %.1f%%)\n",
                over ? "REGRESS" : "     ok", name.c_str(), base_value,
                fresh_value, pct, threshold);
    if (over) {
      ++regressions;
    }
  }
  // Floor gates run against the fresh run only: a floor is an absolute
  // requirement ("fusing must not be slower than interpreting"), not a
  // delta, so neither --warn-only nor --refresh-baselines waives it.
  std::size_t floor_failures = 0;
  for (const MinRule& rule : opt.min_rules) {
    const JsonValue* entry = fresh_metrics->Find(rule.name);
    double value = 0;
    if (entry == nullptr || !MetricValue(*entry, &value)) {
      std::printf("  FLOOR    %-36s absent or non-numeric, need >= %.3f\n",
                  rule.name.c_str(), rule.floor);
      ++floor_failures;
      continue;
    }
    const bool under = value < rule.floor;
    std::printf("  %s  %-36s %12.3f (floor %.3f)\n",
                under ? "FLOOR  " : "     ok", rule.name.c_str(), value,
                rule.floor);
    if (under) {
      ++floor_failures;
    }
  }

  std::printf("bench_compare: %zu compared, %zu regression%s%s", compared,
              regressions, regressions == 1 ? "" : "s",
              (opt.warn_only || opt.refresh) && regressions > 0
                  ? " (not gating)"
                  : "");
  if (!opt.min_rules.empty()) {
    std::printf(", %zu floor failure%s", floor_failures,
                floor_failures == 1 ? "" : "s");
  }
  std::printf("\n");

  if (floor_failures > 0) {
    if (opt.refresh) {
      std::fprintf(stderr,
                   "bench_compare: refusing to refresh %s — the fresh run "
                   "violates a --min floor\n",
                   opt.baseline_path.c_str());
    }
    return 1;
  }
  if (opt.refresh) {
    // The deltas above are the record of what is being accepted; now make
    // the fresh run the committed baseline, byte for byte.
    std::ifstream in(opt.fresh_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::ofstream out(opt.baseline_path,
                      std::ios::binary | std::ios::trunc);
    out << buffer.str();
    if (!out) {
      std::fprintf(stderr, "bench_compare: cannot write %s\n",
                   opt.baseline_path.c_str());
      return 2;
    }
    std::printf("bench_compare: refreshed %s from %s\n",
                opt.baseline_path.c_str(), opt.fresh_path.c_str());
    return 0;
  }
  if (regressions > 0 && !opt.warn_only) {
    return 1;
  }
  return 0;
}
