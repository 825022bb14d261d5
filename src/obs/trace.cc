#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace obs {

namespace internal {
std::atomic<bool> g_trace_armed{false};
constinit thread_local std::uint64_t g_current_flow = 0;
}  // namespace internal

std::uint64_t NextFlowId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Tracer& Tracer::Global() {
  static Tracer* g = new Tracer();  // leaked: outlives static dtors
  return *g;
}

namespace {

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

void Tracer::Arm(std::size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t cap = RoundUpPow2(std::max<std::size_t>(
        8, ring_capacity));
    if (cap != ring_capacity_) {
      ring_capacity_ = cap;
      rings_.clear();  // old rings have the wrong capacity; re-register
      generation_.fetch_add(1, std::memory_order_release);
    }
  }
  internal::g_trace_armed.store(true, std::memory_order_release);
}

void Tracer::Disarm() {
  internal::g_trace_armed.store(false, std::memory_order_release);
}

void Tracer::Reset() {
  Disarm();
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

Tracer::Ring* Tracer::RingForThisThread() {
  // Thread-local ring cache, invalidated whenever the tracer's generation
  // moves (Arm with a new capacity, Reset dropping the rings).
  thread_local Ring* tls_ring = nullptr;
  thread_local std::uint64_t tls_generation = 0;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (tls_ring != nullptr && tls_generation == gen) {
    return tls_ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto ring = std::make_unique<Ring>();
  ring->events.resize(ring_capacity_);
  ring->tid = static_cast<std::uint32_t>(rings_.size() + 1);
  ring->name = "thread-" + std::to_string(ring->tid);
  rings_.push_back(std::move(ring));
  tls_ring = rings_.back().get();
  tls_generation = generation_.load(std::memory_order_acquire);
  return tls_ring;
}

void Tracer::SetThreadName(std::string name) {
  if (!ArmedFast()) {
    return;
  }
  Ring* ring = RingForThisThread();
  std::lock_guard<std::mutex> lock(mu_);
  ring->name = std::move(name);
}

const char* Tracer::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& existing : interned_) {
    if (*existing == s) {
      return existing->c_str();
    }
  }
  interned_.push_back(std::make_unique<std::string>(s));
  return interned_.back()->c_str();
}

// All armed appends funnel through here. The busy flag is the writer half of
// a Dekker handshake with DrainChromeJson: busy is raised seq_cst *before*
// re-reading the armed flag seq_cst, while the drain stores armed=false
// seq_cst *before* reading busy. In the seq_cst total order one side always
// observes the other — either this append sees the disarm and bails without
// touching the ring, or the drain sees busy==1 and spins until the slot
// write below has retired (release store / acquire-or-stronger load pairing
// publishes the plain writes to events[] and next).
void Tracer::Append(const TraceEvent& ev) {
  Ring* ring = RingForThisThread();
  ring->busy.store(1, std::memory_order_seq_cst);
  if (!internal::g_trace_armed.load(std::memory_order_seq_cst)) {
    ring->busy.store(0, std::memory_order_release);
    return;
  }
  ring->events[ring->next & (ring->events.size() - 1)] = ev;
  ring->next++;
  ring->busy.store(0, std::memory_order_release);
}

void Tracer::Span(const char* name, std::uint64_t ts_begin,
                  std::uint64_t dur) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{ts_begin, dur, name, nullptr, 0, 0, 'X', false});
}

void Tracer::Instant(const char* name) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{util::CycleEnd(), 0, name, nullptr, 0, 0, 'i', false});
}

void Tracer::InstantArg(const char* name, std::uint64_t arg) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{util::CycleEnd(), 0, name, nullptr, 0, arg, 'i', true});
}

void Tracer::AsyncBegin(const char* name, const char* cat, std::uint64_t id) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{util::CycleEnd(), 0, name, cat, id, 0, 'b', false});
}

void Tracer::AsyncInstant(const char* name, const char* cat,
                          std::uint64_t id) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{util::CycleEnd(), 0, name, cat, id, 0, 'n', false});
}

void Tracer::AsyncEnd(const char* name, const char* cat, std::uint64_t id) {
  if (!ArmedFast()) {
    return;
  }
  Append(TraceEvent{util::CycleEnd(), 0, name, cat, id, 0, 'e', false});
}

std::size_t Tracer::buffered_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& ring : rings_) {
    n += static_cast<std::size_t>(
        std::min<std::uint64_t>(ring->next, ring->events.size()));
  }
  return n;
}

std::uint64_t Tracer::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) {
    n += ring->next;
  }
  return n;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) {
    if (ring->next > ring->events.size()) {
      n += ring->next - ring->events.size();
    }
  }
  return n;
}

double CyclesPerMicrosecond() {
#if LINSYS_HAVE_RDTSC
  static const double rate = [] {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point w0 = Clock::now();
    const std::uint64_t c0 = util::CycleStart();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t c1 = util::CycleEnd();
    const Clock::time_point w1 = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(w1 - w0)
                          .count();
    return us > 0 ? static_cast<double>(c1 - c0) / us : 1000.0;
  }();
  return rate;
#else
  return 1000.0;  // fallback timebase is nanoseconds
#endif
}

std::string Tracer::ExportChromeJson() const {
  struct Flat {
    TraceEvent ev;
    std::uint32_t tid;
  };
  std::vector<Flat> events;
  std::vector<std::pair<std::uint32_t, std::string>> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      threads.emplace_back(ring->tid, ring->name);
      const std::uint64_t kept =
          std::min<std::uint64_t>(ring->next, ring->events.size());
      const std::uint64_t mask = ring->events.size() - 1;
      for (std::uint64_t i = ring->next - kept; i < ring->next; ++i) {
        events.push_back({ring->events[i & mask], ring->tid});
      }
    }
  }
  std::sort(events.begin(), events.end(), [](const Flat& a, const Flat& b) {
    return a.ev.ts < b.ev.ts;
  });
  const std::uint64_t t0 = events.empty() ? 0 : events.front().ev.ts;
  const double cpu = CyclesPerMicrosecond();

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"linsys\"}}";
  for (const auto& [tid, name] : threads) {
    out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" + name + "\"}}";
  }
  char buf[64];
  for (const Flat& f : events) {
    const double ts_us = static_cast<double>(f.ev.ts - t0) / cpu;
    out += ",{\"name\":\"";
    out += f.ev.name != nullptr ? f.ev.name : "(null)";
    out += "\",\"ph\":\"";
    out += f.ev.ph;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(f.tid);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", ts_us);
    out += buf;
    if (f.ev.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(f.ev.dur) / cpu);
      out += buf;
    } else if (f.ev.ph == 'b' || f.ev.ph == 'n' || f.ev.ph == 'e') {
      // Async nestable events: (cat, id) keys the cross-thread track. The id
      // is a JSON string (hex) — Perfetto accepts both and strings survive
      // 64-bit ids that double-typed numbers would mangle.
      out += ",\"cat\":\"";
      out += f.ev.cat != nullptr ? f.ev.cat : "flow";
      out += "\"";
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    static_cast<unsigned long long>(f.ev.id));
      out += buf;
    } else {
      out += ",\"s\":\"t\"";
    }
    if (f.ev.has_arg) {
      out += ",\"args\":{\"v\":" + std::to_string(f.ev.arg) + "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string Tracer::DrainChromeJson() {
  // One drain at a time: a second drain would see the tracer already
  // disarmed, and the first one's re-arm would let writers back into rings
  // the second is still reading.
  std::lock_guard<std::mutex> drain(drain_mu_);
  // Disarm (seq_cst — the drain half of the Append handshake), then wait
  // for every ring's in-flight append to retire before reading the rings.
  const bool was_armed =
      internal::g_trace_armed.exchange(false, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      while (ring->busy.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
  }
  // Writers that raced past ArmedFast() now see armed==false under their
  // busy flag and skip, so the export below reads a stable snapshot even
  // though the instrumented threads were never joined. A ring registered
  // between the spin above and the export is necessarily still empty.
  std::string out = ExportChromeJson();
  if (was_armed) {
    internal::g_trace_armed.store(true, std::memory_order_seq_cst);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::string json = ExportChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace obs
