// obs:: cycle tracer — per-thread ring buffers of cycle-timestamped events,
// exported as chrome://tracing "trace event" JSON (loadable in Perfetto).
//
// The metrics registry answers "how much, in aggregate"; the tracer answers
// "what happened, when, on which worker" — fault fired on worker 2, its
// recovery span ran 40µs later on the supervisor thread, the quarantine
// instant closed the incident. Design mirrors LINSYS_FAULT_POINT's
// disarmed-cost discipline:
//
//   * Disarmed, LINSYS_TRACE_SPAN / LINSYS_TRACE_INSTANT cost one relaxed
//     atomic load and a predictable branch — cheap enough to stay compiled
//     into the packet path in every build mode.
//   * Armed, an event append is two rdtsc reads (span) plus one store into a
//     thread-private ring slot: no locks, no allocation, no cross-thread
//     cache traffic. Rings are fixed-size and overwrite oldest (wraparound
//     is counted, never blocks a worker).
//   * Event names are `const char*` and must outlive the tracer: string
//     literals at macro sites, or Intern() for dynamic names on cold paths
//     (fault-injection sites).
//
// Threading: Record runs concurrently from any number of threads. Arm /
// Disarm are safe any time; Reset and ExportChromeJson require writers to be
// quiesced (e.g. after Runtime::Shutdown joined the workers) — the expected
// harness shape is arm, run, shut down, export. DrainChromeJson is the live
// alternative used by the ops server: it briefly disarms, waits for every
// in-flight append to retire via a per-ring busy flag, exports, and rearms —
// safe while workers keep running (appends that land during the drain window
// see the disarmed flag and skip, counted as any disarmed-period event is).
#ifndef LINSYS_SRC_OBS_TRACE_H_
#define LINSYS_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/cycles.h"

namespace obs {

namespace internal {
extern std::atomic<bool> g_trace_armed;
}  // namespace internal

struct TraceEvent {
  std::uint64_t ts = 0;   // cycles (CycleStart timebase)
  std::uint64_t dur = 0;  // cycles; 0 for instants
  const char* name = nullptr;
  const char* cat = nullptr;  // async events only; (cat, id) keys the track
  std::uint64_t id = 0;       // async track id; 0 for non-async events
  std::uint64_t arg = 0;      // exported as args.v when has_arg
  char ph = 'i';              // 'X' span, 'i' instant, 'b'/'n'/'e' async
  bool has_arg = false;
};

// Flow-correlation context: a 64-bit flow/batch id assigned at dispatch and
// carried in TLS while that flow's work executes, so instrumentation deep in
// the stack (sfi crossings, recovery, histogram exemplars) can tag what it
// records with *which* flow it happened to. 0 means "no flow context".
// constinit, so other translation units read it directly rather than
// through a TLS init wrapper (which UBSan reports as a null-pointer access).
namespace internal {
extern constinit thread_local std::uint64_t g_current_flow;
}  // namespace internal

// Process-unique flow ids (monotone, never 0). Cheap: one relaxed RMW.
std::uint64_t NextFlowId();

inline std::uint64_t CurrentFlowId() { return internal::g_current_flow; }

// RAII flow-context switch: restores the previous id on exit (nests).
class ScopedFlowId {
 public:
  explicit ScopedFlowId(std::uint64_t id) : prev_(internal::g_current_flow) {
    internal::g_current_flow = id;
  }
  ~ScopedFlowId() { internal::g_current_flow = prev_; }

  ScopedFlowId(const ScopedFlowId&) = delete;
  ScopedFlowId& operator=(const ScopedFlowId&) = delete;

 private:
  std::uint64_t prev_;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Global();

  // The disarmed fast path, inlined into every macro site.
  static bool ArmedFast() {
    return internal::g_trace_armed.load(std::memory_order_relaxed);
  }

  // Starts capturing. `ring_capacity` is events per thread, rounded up to a
  // power of two; threads register their ring lazily on first event.
  void Arm(std::size_t ring_capacity = std::size_t{1} << 14);
  void Disarm();

  // Drops all rings and buffered events. Writers must be quiesced.
  void Reset();

  // Names the calling thread's track in the exported trace ("worker0",
  // "supervisor"). No-op while disarmed.
  void SetThreadName(std::string name);

  // Copies `s` into tracer-owned storage and returns a stable const char*,
  // for event names that are not string literals. Takes a mutex — cold
  // paths only (fault firings, not packet batches).
  const char* Intern(std::string_view s);

  // Appends one event to the calling thread's ring. No-op while disarmed.
  void Span(const char* name, std::uint64_t ts_begin, std::uint64_t dur);
  void Instant(const char* name);
  void InstantArg(const char* name, std::uint64_t arg);

  // Async (nestable) events: all events sharing (cat, id) render as one
  // track in Perfetto regardless of which thread emitted them — this is how
  // one flow's dispatch, worker batches, and recovery stitch together.
  // `name` and `cat` must outlive the tracer (literals or Intern()).
  // Pairing contract (validated by tools/trace_lint): every 'b' emitted for
  // a (cat, id) must be matched by an 'e' for the same (cat, id).
  void AsyncBegin(const char* name, const char* cat, std::uint64_t id);
  void AsyncInstant(const char* name, const char* cat, std::uint64_t id);
  void AsyncEnd(const char* name, const char* cat, std::uint64_t id);

  // Events currently buffered / appended since Arm / overwritten by
  // wraparound.
  std::size_t buffered_events() const;
  std::uint64_t total_events() const;
  std::uint64_t dropped_events() const;

  // chrome://tracing "trace event format" JSON. Timestamps are converted
  // from cycles to microseconds with a one-shot TSC calibration and
  // rebased to the earliest buffered event.
  std::string ExportChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

  // Live export: quiesces writers without joining them (disarm, spin until
  // every ring's in-flight append retires, export, rearm if it was armed).
  // Safe to call from any thread while instrumented threads keep running,
  // and concurrent drains run one after the other; events attempted during
  // the drain window are skipped, not torn.
  std::string DrainChromeJson();

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // capacity is a power of two
    std::uint64_t next = 0;          // total appended to this ring
    // Raised (seq_cst) around every armed append; DrainChromeJson disarms
    // and then waits for busy == 0 before it reads events/next, so a live
    // drain never races a half-written slot (Dekker with the armed flag).
    std::atomic<std::uint32_t> busy{0};
    std::uint32_t tid = 0;
    std::string name;
  };

  Ring* RingForThisThread();
  void Append(const TraceEvent& ev);

  std::mutex drain_mu_;  // serializes DrainChromeJson calls
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<std::string>> interned_;
  std::size_t ring_capacity_ = std::size_t{1} << 14;
  std::atomic<std::uint64_t> generation_{0};
};

// Measured TSC rate for cycle->wall-time conversion in exports; calibrated
// once against steady_clock. On the no-rdtsc fallback (cycles are already
// nanoseconds) this returns exactly 1000.
double CyclesPerMicrosecond();

// RAII complete-span guard used by LINSYS_TRACE_SPAN.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::ArmedFast()) {
      name_ = name;
      start_ = util::CycleStart();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr && Tracer::ArmedFast()) {
      Tracer::Global().Span(name_, start_, util::CycleEnd() - start_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

// RAII async-span guard: emits 'b' on entry and the matching 'e' on exit
// (all return paths and unwinds), keeping the trace_lint pairing contract
// structural. No-op when `id` is 0 or the tracer is disarmed at entry.
class AsyncSpan {
 public:
  AsyncSpan(const char* name, const char* cat, std::uint64_t id) {
    if (id != 0 && Tracer::ArmedFast()) {
      name_ = name;
      cat_ = cat;
      id_ = id;
      Tracer::Global().AsyncBegin(name, cat, id);
    }
  }
  ~AsyncSpan() {
    if (name_ != nullptr && Tracer::ArmedFast()) {
      Tracer::Global().AsyncEnd(name_, cat_, id_);
    }
  }

  AsyncSpan(const AsyncSpan&) = delete;
  AsyncSpan& operator=(const AsyncSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t id_ = 0;
};

}  // namespace obs

#define LINSYS_TRACE_CAT2(a, b) a##b
#define LINSYS_TRACE_CAT(a, b) LINSYS_TRACE_CAT2(a, b)

// Complete span covering the enclosing scope. `name` must be a string
// literal (or otherwise outlive the tracer).
#define LINSYS_TRACE_SPAN(name) \
  ::obs::TraceSpan LINSYS_TRACE_CAT(linsys_trace_span_, __LINE__)(name)

#define LINSYS_TRACE_INSTANT(name)          \
  do {                                      \
    if (::obs::Tracer::ArmedFast()) {       \
      ::obs::Tracer::Global().Instant(name); \
    }                                       \
  } while (0)

#define LINSYS_TRACE_INSTANT_ARG(name, value)            \
  do {                                                   \
    if (::obs::Tracer::ArmedFast()) {                    \
      ::obs::Tracer::Global().InstantArg(name, value);   \
    }                                                    \
  } while (0)

// Async-track events, skipped when id == 0 (no flow context) so call sites
// can pass obs::CurrentFlowId() unconditionally.
#define LINSYS_TRACE_ASYNC_INSTANT(name, cat, id)             \
  do {                                                        \
    const std::uint64_t linsys_trace_async_id_ = (id);        \
    if (linsys_trace_async_id_ != 0 &&                        \
        ::obs::Tracer::ArmedFast()) {                         \
      ::obs::Tracer::Global().AsyncInstant(name, cat,         \
                                           linsys_trace_async_id_); \
    }                                                         \
  } while (0)

// Async span covering the enclosing scope ('b' now, matching 'e' at exit).
#define LINSYS_TRACE_ASYNC_SPAN(name, cat, id) \
  ::obs::AsyncSpan LINSYS_TRACE_CAT(linsys_trace_async_span_, __LINE__)( \
      name, cat, id)

#endif  // LINSYS_SRC_OBS_TRACE_H_
