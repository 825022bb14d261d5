#include "src/obs/profiler.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <csignal>
#include <ctime>
#include <sys/syscall.h>
#include <unistd.h>

// glibc grew the sigev_notify_thread_id accessor late (2.35); the kernel ABI
// field has been there since SIGEV_THREAD_ID appeared in 2.6.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // defined(__linux__)

namespace obs {

namespace internal {
std::atomic<bool> g_prof_armed{false};
constinit thread_local ProfThreadContext* g_prof_ctx = nullptr;
}  // namespace internal

const char* ProfilerPhaseName(ProfilerPhase p) {
  switch (p) {
    case ProfilerPhase::kIdle:
      return "idle";
    case ProfilerPhase::kPop:
      return "pop";
    case ProfilerPhase::kExecute:
      return "execute";
    case ProfilerPhase::kRecover:
      return "recover";
    case ProfilerPhase::kCkptCapture:
      return "ckpt-capture";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kSlots = 64;  // power of two; keys are (phase, stage)

// Everything the SIGPROF handler touches lives in here, pre-allocated at
// registration and never freed — a signal pending across timer_delete can
// land late but never on reclaimed memory. All handler-visible fields are
// lock-free atomics; the handler is the only writer of the slot table (one
// handler at a time per thread: SIGPROF is masked while it runs).
struct ProfThreadState {
  internal::ProfThreadContext ctx;

  struct Slot {
    std::atomic<std::uint32_t> tag{0};  // phase + 1; 0 = empty
    std::atomic<const char*> stage{nullptr};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> last_flow{0};
  };
  Slot slots[kSlots];
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> overflow{0};
  // Writer half of the Dekker handshake with StopWindowFolded (see
  // Tracer::Append for the argument; the protocol is identical).
  std::atomic<std::uint32_t> busy{0};

  std::string name;
#if defined(__linux__)
  pthread_t pthread{};
  pid_t tid = 0;
  timer_t timer{};
#endif
  bool has_timer = false;  // guarded by Impl::mu
  std::atomic<bool> alive{true};
};

#if defined(__linux__)
// Async-signal-safe by construction: atomic loads/stores and one bounded
// probe over pre-allocated slots. No allocation, locks, or libc calls.
void ProfSignalHandler(int /*signo*/, siginfo_t* si, void* /*uctx*/) {
  ProfThreadState* st = static_cast<ProfThreadState*>(si->si_value.sival_ptr);
  if (st == nullptr) {
    return;
  }
  st->busy.store(1, std::memory_order_seq_cst);
  if (!internal::g_prof_armed.load(std::memory_order_seq_cst)) {
    st->busy.store(0, std::memory_order_release);
    return;
  }
  const std::uint8_t phase = st->ctx.phase.load(std::memory_order_relaxed);
  const char* stage = st->ctx.stage.load(std::memory_order_relaxed);
  if (phase != static_cast<std::uint8_t>(ProfilerPhase::kExecute)) {
    // Only execute is refined by stage; pop/recover/etc. inside a stage's
    // dynamic extent still fold to their own phase frame.
    stage = nullptr;
  }
  const std::uint64_t flow = st->ctx.flow.load(std::memory_order_relaxed);
  const std::uint32_t tag = static_cast<std::uint32_t>(phase) + 1;
  const std::size_t h =
      (reinterpret_cast<std::uintptr_t>(stage) >> 4) ^ phase;
  bool stored = false;
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    ProfThreadState::Slot& slot = st->slots[(h + probe) & (kSlots - 1)];
    const std::uint32_t cur = slot.tag.load(std::memory_order_relaxed);
    if (cur == 0) {
      slot.stage.store(stage, std::memory_order_relaxed);
      slot.count.store(1, std::memory_order_relaxed);
      slot.last_flow.store(flow, std::memory_order_relaxed);
      slot.tag.store(tag, std::memory_order_release);
      stored = true;
      break;
    }
    if (cur == tag && slot.stage.load(std::memory_order_relaxed) == stage) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      if (flow != 0) {
        slot.last_flow.store(flow, std::memory_order_relaxed);
      }
      stored = true;
      break;
    }
  }
  st->samples.fetch_add(1, std::memory_order_relaxed);
  if (!stored) {
    st->overflow.fetch_add(1, std::memory_order_relaxed);
  }
  st->busy.store(0, std::memory_order_release);
}
#endif  // defined(__linux__)

thread_local ProfThreadState* t_state = nullptr;

#if defined(__linux__)
// Creates + starts the per-thread CPU-time timer for `st`. Caller holds
// Impl::mu. Best-effort: a thread racing away (clockid lookup fails) or an
// exhausted timer table just means that thread goes unsampled this window.
bool ArmTimerLocked(ProfThreadState* st, std::uint32_t period_us) {
  clockid_t clk;
  if (::pthread_getcpuclockid(st->pthread, &clk) != 0) {
    return false;
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_value.sival_ptr = st;
  sev.sigev_notify_thread_id = st->tid;
  timer_t t;
  if (::timer_create(clk, &sev, &t) != 0) {
    return false;
  }
  st->timer = t;
  st->has_timer = true;
  struct itimerspec its;
  std::memset(&its, 0, sizeof(its));
  its.it_value.tv_sec = period_us / 1000000;
  its.it_value.tv_nsec = static_cast<long>(period_us % 1000000) * 1000;
  its.it_interval = its.it_value;
  ::timer_settime(t, 0, &its, nullptr);
  return true;
}
#endif  // defined(__linux__)

std::string SanitizeFrame(std::string s) {
  for (char& c : s) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') {
      c = '_';
    }
  }
  return s.empty() ? std::string("thread") : s;
}

}  // namespace

struct Profiler::Impl {
  std::mutex mu;
  std::vector<std::unique_ptr<ProfThreadState>> states;  // never shrinks
  std::atomic<bool> window_open{false};
  std::uint32_t period_us = 0;
  bool handler_installed = false;
};

Profiler& Profiler::Global() {
  static Profiler* g = new Profiler();  // leaked: outlives static dtors
  return *g;
}

Profiler::Impl& Profiler::impl() {
  static std::once_flag once;
  std::call_once(once, [this] { impl_ = new Impl(); });
  return *impl_;
}

void Profiler::RegisterThisThread(std::string name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (t_state != nullptr) {
    t_state->name = SanitizeFrame(std::move(name));
    t_state->alive.store(true, std::memory_order_relaxed);
    internal::g_prof_ctx = &t_state->ctx;
    return;
  }
  auto st = std::make_unique<ProfThreadState>();
  st->name = SanitizeFrame(std::move(name));
#if defined(__linux__)
  st->pthread = pthread_self();
  st->tid = static_cast<pid_t>(::syscall(SYS_gettid));
#endif
  im.states.push_back(std::move(st));
  t_state = im.states.back().get();
  internal::g_prof_ctx = &t_state->ctx;
#if defined(__linux__)
  // A thread registered mid-window joins the open window instead of going
  // dark until the next one.
  if (im.window_open.load(std::memory_order_relaxed)) {
    ArmTimerLocked(t_state, im.period_us);
  }
#endif
}

void Profiler::UnregisterThisThread() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  internal::g_prof_ctx = nullptr;
  if (t_state == nullptr) {
    return;
  }
  t_state->alive.store(false, std::memory_order_relaxed);
#if defined(__linux__)
  if (t_state->has_timer) {
    ::timer_delete(t_state->timer);
    t_state->has_timer = false;
  }
#endif
  t_state = nullptr;
}

bool Profiler::StartWindow(std::uint32_t period_us, std::string* error) {
#if !defined(__linux__)
  (void)period_us;
  if (error != nullptr) {
    *error = "profiler: per-thread CPU timers unavailable on this platform";
  }
  return false;
#else
  if (period_us < 50) {
    period_us = 50;  // floor: keep the signal rate sane
  }
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.window_open.load(std::memory_order_relaxed)) {
    if (error != nullptr) {
      *error = "profiler: a sampling window is already open";
    }
    return false;
  }
  if (!im.handler_installed) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &ProfSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      if (error != nullptr) {
        *error = "profiler: sigaction(SIGPROF) failed";
      }
      return false;
    }
    im.handler_installed = true;
  }
  im.period_us = period_us;
  for (auto& st : im.states) {
    for (auto& slot : st->slots) {
      slot.tag.store(0, std::memory_order_relaxed);
      slot.stage.store(nullptr, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.last_flow.store(0, std::memory_order_relaxed);
    }
    st->samples.store(0, std::memory_order_relaxed);
    st->overflow.store(0, std::memory_order_relaxed);
  }
  // Arm before the timers exist so the very first tick is counted.
  internal::g_prof_armed.store(true, std::memory_order_seq_cst);
  for (auto& st : im.states) {
    if (!st->alive.load(std::memory_order_relaxed)) {
      continue;
    }
    ArmTimerLocked(st.get(), period_us);
  }
  im.window_open.store(true, std::memory_order_relaxed);
  return true;
#endif  // defined(__linux__)
}

std::string Profiler::StopWindowFolded() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (!im.window_open.load(std::memory_order_relaxed)) {
    return "# linsys-profile: no open window\n";
  }
  // Drain half of the handshake: disarm (seq_cst), tear down the timers,
  // then wait for every in-flight handler to retire before reading slots.
  // A SIGPROF left pending across timer_delete sees armed == false under
  // its busy flag and touches nothing.
  internal::g_prof_armed.exchange(false, std::memory_order_seq_cst);
#if defined(__linux__)
  for (auto& st : im.states) {
    if (st->has_timer) {
      ::timer_delete(st->timer);
      st->has_timer = false;
    }
  }
#endif
  for (auto& st : im.states) {
    while (st->busy.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }

  std::uint64_t samples = 0;
  std::uint64_t idle = 0;
  std::uint64_t overflow = 0;
  std::string lines;
  std::string exemplars;
  char buf[160];
  for (auto& st : im.states) {
    samples += st->samples.load(std::memory_order_relaxed);
    overflow += st->overflow.load(std::memory_order_relaxed);
    for (auto& slot : st->slots) {
      const std::uint32_t tag = slot.tag.load(std::memory_order_acquire);
      if (tag == 0) {
        continue;
      }
      const std::uint64_t count = slot.count.load(std::memory_order_relaxed);
      if (count == 0) {
        continue;
      }
      const ProfilerPhase phase = static_cast<ProfilerPhase>(tag - 1);
      if (phase == ProfilerPhase::kIdle) {
        idle += count;
      }
      std::string stack = st->name;
      stack += ';';
      stack += ProfilerPhaseName(phase);
      const char* stage = slot.stage.load(std::memory_order_relaxed);
      if (stage != nullptr) {
        stack += ';';
        stack += SanitizeFrame(stage);  // stage names are user-chosen
      }
      lines += stack;
      std::snprintf(buf, sizeof(buf), " %llu\n",
                    static_cast<unsigned long long>(count));
      lines += buf;
      const std::uint64_t flow =
          slot.last_flow.load(std::memory_order_relaxed);
      if (flow != 0) {
        std::snprintf(buf, sizeof(buf), "# exemplar %s flow=0x%llx\n",
                      stack.c_str(), static_cast<unsigned long long>(flow));
        exemplars += buf;
      }
    }
  }
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "# linsys-profile period_us=%u threads=%zu samples=%llu "
                "idle=%llu overflow=%llu attributed=%llu\n",
                im.period_us, im.states.size(),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(idle),
                static_cast<unsigned long long>(overflow),
                static_cast<unsigned long long>(samples - overflow));
  out += buf;
  out += lines;
  out += exemplars;
  im.window_open.store(false, std::memory_order_relaxed);
  return out;
}

bool Profiler::window_open() const {
  Profiler* self = const_cast<Profiler*>(this);
  return self->impl().window_open.load(std::memory_order_relaxed);
}

}  // namespace obs
