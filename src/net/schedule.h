// Pipeline schedule IR — the Halide-style split of *algorithm* (the operator
// chain, a std::vector<StageSpec>) from *schedule* (how the chain maps onto
// protection domains). The paper prices isolation per domain crossing
// (Figure 2); the schedule decides where that price is paid:
//
//   * Fuse(a, b)   — stages [a, b] collapse into one fusion group: one
//                    protection domain, one rref call, one loop over the
//                    batch. Co-trusted stages stop paying per-stage
//                    crossings.
//   * Isolate(s)   — stage s keeps its own domain no matter what. Pins win
//                    over fuses regardless of directive order: an Isolate
//                    splits any fusion run that crosses it.
//
// A schedule never touches operator code; it resolves to a partition of the
// stage indices into ordered, contiguous runs, which IsolatedPipeline::
// ApplySchedule turns into fusion groups. The interpreted schedule (all
// singleton groups) is the identity and the default.
#ifndef LINSYS_SRC_NET_SCHEDULE_H_
#define LINSYS_SRC_NET_SCHEDULE_H_

#include <cstddef>
#include <vector>

#include "src/util/panic.h"

namespace net {

struct PipelineSchedule {
  struct Directive {
    enum class Kind { kFuse, kIsolate };
    Kind kind = Kind::kFuse;
    std::size_t a = 0;
    std::size_t b = 0;
  };

  // One domain per stage — today's behaviour, and the default.
  static PipelineSchedule Interpreted() { return PipelineSchedule{}; }

  PipelineSchedule& Fuse(std::size_t a, std::size_t b) {
    directives.push_back({Directive::Kind::kFuse, a, b});
    return *this;
  }

  PipelineSchedule& Isolate(std::size_t s) {
    directives.push_back({Directive::Kind::kIsolate, s, s});
    return *this;
  }

  bool fused() const { return !directives.empty(); }

  std::vector<Directive> directives;
};

// Resolves a schedule against a pipeline of `n` stages into a partition of
// [0, n) — ordered, contiguous runs of stage indices, one run per fusion
// group.
inline std::vector<std::vector<std::size_t>> ResolveSchedule(
    const PipelineSchedule& schedule, std::size_t n) {
  if (n == 0) {
    return {};
  }
  // cut[i] == true: a group boundary sits between stage i-1 and stage i.
  // Every boundary starts cut (interpreted); fuses clear boundaries, and
  // Isolate pins re-cut them afterwards, so a pin always wins over a fuse
  // that crosses it.
  std::vector<bool> cut(n, true);
  for (const PipelineSchedule::Directive& d : schedule.directives) {
    if (d.kind != PipelineSchedule::Directive::Kind::kFuse) {
      continue;
    }
    LINSYS_ASSERT(d.a <= d.b && d.b < n, "Fuse(a, b) out of range");
    for (std::size_t i = d.a + 1; i <= d.b; ++i) {
      cut[i] = false;
    }
  }
  for (const PipelineSchedule::Directive& d : schedule.directives) {
    if (d.kind != PipelineSchedule::Directive::Kind::kIsolate) {
      continue;
    }
    LINSYS_ASSERT(d.a < n, "Isolate(s) out of range");
    cut[d.a] = true;
    if (d.a + 1 < n) {
      cut[d.a + 1] = true;
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < n; ++i) {
    if (cut[i]) {
      groups.emplace_back();
    }
    groups.back().push_back(i);
  }
  return groups;
}

}  // namespace net

#endif  // LINSYS_SRC_NET_SCHEDULE_H_
