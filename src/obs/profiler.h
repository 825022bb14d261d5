// obs:: sampling profiler — per-thread timer-driven CPU sampling attributed
// to runtime context, exported as folded-stack (flamegraph-ready) text.
//
// The tracer answers "what happened, when"; the profiler answers "where did
// the CPU go" — without frame-pointer unwinding. Each registered thread
// (the runtime's workers) keeps a tiny TLS context block: the current
// *phase* (pop / execute / recover / idle) and the current pipeline stage
// name; the flow id is the tracer's (obs::ScopedFlowId). A POSIX per-thread
// CPU-time timer (timer_create on the thread's cpuclock, SIGEV_THREAD_ID,
// SIGPROF) interrupts the thread on its own CPU consumption; the signal
// handler attributes the tick to that context by bumping a slot in a
// pre-allocated per-thread table. No allocation, no locks, no unwinding —
// every handler operation is an atomic load/store on memory that already
// exists, which keeps the handler async-signal-safe and TSan-clean.
//
// Cost discipline mirrors the tracer's:
//   * No window open: context setters are one relaxed atomic load and a
//     predictable branch (then nothing) — cheap enough to stay compiled into
//     the packet path in every build mode. No timers exist, so zero ticks.
//   * Window open: a context switch is one or two relaxed TLS stores; a
//     sample is a handler running a bounded probe over a 64-slot table.
//
// Concurrency: the sample tables are written only by their owning thread's
// signal handler and read by the draining thread. The drain uses the same
// Dekker handshake as Tracer::DrainChromeJson — the handler raises a
// per-thread busy flag (seq_cst), re-checks the armed flag (seq_cst) and
// bails if a drain started, while the drain disarms (seq_cst) and spins on
// busy before reading. Pending SIGPROFs delivered after timer_delete hit the
// disarmed check and touch nothing. Thread states are never freed (threads
// unregister by marking themselves dead), so a late signal can never land on
// reclaimed memory.
#ifndef LINSYS_SRC_OBS_PROFILER_H_
#define LINSYS_SRC_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace obs {

// Attribution vocabulary. kIdle is the default between scopes; everything
// else is entered via ScopedProfilerPhase at the matching runtime site.
enum class ProfilerPhase : std::uint8_t {
  kIdle = 0,
  kPop = 1,
  kExecute = 2,
  kRecover = 3,
};

// Folded-frame name for a phase ("idle", "pop", ...).
const char* ProfilerPhaseName(ProfilerPhase p);

namespace internal {

extern std::atomic<bool> g_prof_armed;

// The slice of per-thread profiler state the inline context setters touch.
// Written by the owning thread (relaxed), read by that thread's SIGPROF
// handler — same thread, so the handler always sees the latest values.
struct ProfThreadContext {
  std::atomic<std::uint8_t> phase{
      static_cast<std::uint8_t>(ProfilerPhase::kIdle)};
  std::atomic<const char*> stage{nullptr};
};

// Null until the thread calls Profiler::RegisterThisThread. constinit, so
// other translation units read it directly rather than through a TLS init
// wrapper (which UBSan reports as a null-pointer access).
extern constinit thread_local ProfThreadContext* g_prof_ctx;

}  // namespace internal

class Profiler {
 public:
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  static Profiler& Global();

  // The no-window fast path, inlined into every context setter.
  static bool ArmedFast() {
    return internal::g_prof_armed.load(std::memory_order_relaxed);
  }

  // Creates (or renames) the calling thread's profiler state. Cheap to call
  // again; the state block itself is never freed.
  void RegisterThisThread(std::string name);

  // Marks the calling thread's state dead and tears down its timer if a
  // window is open. Call before the thread exits — a CPU-time timer must
  // not outlive its thread.
  void UnregisterThisThread();

  // Opens a sampling window: resets the tables and arms one CPU-time timer
  // per registered live thread firing every `period_us` microseconds of
  // *that thread's* CPU consumption. Fails (false + *error) if a window is
  // already open or the platform lacks per-thread CPU timers.
  bool StartWindow(std::uint32_t period_us, std::string* error);

  // Closes the window: disarms, quiesces in-flight handlers via the busy
  // flags, and renders the tables as folded-stack text —
  //   <thread>;<phase>[;<stage>] <count>
  // one line per populated slot, preceded by `#` comment headers carrying
  // sample / attribution / overflow tallies and followed by `# exemplar`
  // comments with the last flow id (obs::CurrentFlowId) a sample of each
  // stack landed in. Safe to call while the profiled threads keep running.
  std::string StopWindowFolded();

  bool window_open() const;

 private:
  Profiler() = default;
  struct Impl;
  Impl* impl_ = nullptr;  // created lazily, leaked (outlives static dtors)
  Impl& impl();
};

// RAII phase switch: restores the previous phase on exit (nests). No-op for
// unregistered threads or when no window is open at entry — a window opening
// mid-scope simply sees the enclosing phase, which is the correct
// attribution for a sampling profiler.
class ScopedProfilerPhase {
 public:
  explicit ScopedProfilerPhase(ProfilerPhase p) {
    internal::ProfThreadContext* ctx = internal::g_prof_ctx;
    if (ctx != nullptr && Profiler::ArmedFast()) {
      ctx_ = ctx;
      prev_ = ctx->phase.load(std::memory_order_relaxed);
      ctx->phase.store(static_cast<std::uint8_t>(p),
                       std::memory_order_relaxed);
    }
  }
  ~ScopedProfilerPhase() {
    if (ctx_ != nullptr) {
      ctx_->phase.store(prev_, std::memory_order_relaxed);
    }
  }

  ScopedProfilerPhase(const ScopedProfilerPhase&) = delete;
  ScopedProfilerPhase& operator=(const ScopedProfilerPhase&) = delete;

 private:
  internal::ProfThreadContext* ctx_ = nullptr;
  std::uint8_t prev_ = 0;
};

// RAII stage-name switch, same contract. `name` must outlive the window
// (stage names in the runtime are stable for the pipeline's lifetime).
class ScopedProfilerStage {
 public:
  explicit ScopedProfilerStage(const char* name) {
    internal::ProfThreadContext* ctx = internal::g_prof_ctx;
    if (ctx != nullptr && Profiler::ArmedFast()) {
      ctx_ = ctx;
      prev_ = ctx->stage.load(std::memory_order_relaxed);
      ctx->stage.store(name, std::memory_order_relaxed);
    }
  }
  ~ScopedProfilerStage() {
    if (ctx_ != nullptr) {
      ctx_->stage.store(prev_, std::memory_order_relaxed);
    }
  }

  ScopedProfilerStage(const ScopedProfilerStage&) = delete;
  ScopedProfilerStage& operator=(const ScopedProfilerStage&) = delete;

 private:
  internal::ProfThreadContext* ctx_ = nullptr;
  const char* prev_ = nullptr;
};

}  // namespace obs

#endif  // LINSYS_SRC_OBS_PROFILER_H_
