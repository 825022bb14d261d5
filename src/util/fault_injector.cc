#include "src/util/fault_injector.h"

#include <functional>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace util {
namespace {

// splitmix64 step — the same mixer rng.h uses for seeding, chosen here
// because each draw advances a single word of state (easy to keep per site).
std::uint64_t SplitMix(std::uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  return Mix64(*state);
}

double ToUnitDouble(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

namespace {

// The calling thread's injection tag. A function-local static avoids the
// TLS-init-order problems of a namespace-scope thread_local with a
// non-trivial type.
std::string& ThreadTagSlot() {
  thread_local std::string tag;
  return tag;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::SetThreadTag(std::string tag) {
  ThreadTagSlot() = std::move(tag);
}

const std::string& FaultInjector::ThreadTag() { return ThreadTagSlot(); }

void FaultInjector::Seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

FaultInjector::Site& FaultInjector::Arm(const std::string& site,
                                        InjectMode mode, PanicKind kind) {
  Site& s = sites_[site];
  if (s.mode == InjectMode::kDisarmed) {
    armed_sites_.fetch_add(1, std::memory_order_relaxed);
    if (IsTagged(site)) {
      tagged_plans_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.mode = mode;
  s.kind = kind;
  s.oneshot_pending = false;
  s.every_nth = 0;
  s.probability = 0.0;
  s.hits = 0;  // plans are counted from arming, so re-arming restarts Nth
  // Decorrelate per-site streams: same global seed, different site names ->
  // different, reproducible decision sequences.
  std::uint64_t name_mix = std::hash<std::string>{}(site);
  s.rng_state = seed_ ^ SplitMix(&name_mix);
  return s;
}

void FaultInjector::ArmOneShot(const std::string& site, PanicKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = Arm(site, InjectMode::kOneShot, kind);
  s.oneshot_pending = true;
}

void FaultInjector::ArmEveryNth(const std::string& site, std::uint64_t n,
                                PanicKind kind) {
  LINSYS_ASSERT(n >= 1, "ArmEveryNth needs n >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = Arm(site, InjectMode::kEveryNth, kind);
  s.every_nth = n;
}

void FaultInjector::ArmProbability(const std::string& site, double p,
                                   PanicKind kind) {
  LINSYS_ASSERT(p >= 0.0 && p <= 1.0, "injection probability out of [0,1]");
  std::lock_guard<std::mutex> lock(mu_);
  Site& s = Arm(site, InjectMode::kProbability, kind);
  s.probability = p;
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end() && it->second.mode != InjectMode::kDisarmed) {
    it->second.mode = InjectMode::kDisarmed;
    armed_sites_.fetch_sub(1, std::memory_order_relaxed);
    if (IsTagged(site)) {
      tagged_plans_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
  tagged_plans_.store(0, std::memory_order_relaxed);
  seed_ = kDefaultSeed;
}

bool FaultInjector::EvaluateLocked(const std::string& name, PanicKind* kind) {
  auto it = sites_.find(name);
  if (it == sites_.end() || it->second.mode == InjectMode::kDisarmed) {
    return false;
  }
  Site& s = it->second;
  ++s.hits;
  bool fire = false;
  switch (s.mode) {
    case InjectMode::kOneShot:
      fire = s.oneshot_pending;
      s.oneshot_pending = false;
      if (fire) {
        s.mode = InjectMode::kDisarmed;
        armed_sites_.fetch_sub(1, std::memory_order_relaxed);
        if (IsTagged(name)) {
          tagged_plans_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      break;
    case InjectMode::kEveryNth:
      fire = (s.hits % s.every_nth) == 0;
      break;
    case InjectMode::kProbability:
      fire = ToUnitDouble(SplitMix(&s.rng_state)) < s.probability;
      break;
    case InjectMode::kDisarmed:
      break;
  }
  if (!fire) {
    return false;
  }
  ++s.fires;
  *kind = s.kind;
  return true;
}

void FaultInjector::Hit(std::string_view site) {
  PanicKind kind = PanicKind::kExplicit;
  std::string fired_name;
  {
    // Thread-scoped plans are evaluated first. The scoped key is only built
    // when both halves of the fast-path check pass: some "<tag>/<site>" plan
    // is armed (one relaxed load) AND this thread declared a tag — an
    // untagged thread, or a storm with only plain plans, never pays the
    // string concatenation or the extra lookup.
    std::string tagged_name;
    if (tagged_plans_.load(std::memory_order_relaxed) > 0) {
      const std::string& tag = ThreadTag();
      if (!tag.empty()) {
        tagged_name = tag + "/" + std::string(site);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!tagged_name.empty() && EvaluateLocked(tagged_name, &kind)) {
      fired_name = std::move(tagged_name);
    } else if (!EvaluateLocked(std::string(site), &kind)) {
      return;
    } else {
      fired_name = std::string(site);
    }
  }
  std::string message = "injected fault at " + fired_name;
  // Firing is cold by definition (a panic is about to unwind): record it in
  // the global registry and, when tracing, as an instant named after the
  // site so the trace shows *which* fault point started an incident.
  obs::Registry::Global().GetCounter("fault.fires_total")->Inc();
  // Per-site fire counters are finer-grained than the total (one registry
  // series per site name), so only kept while a harness armed metrics. The registry lookup is fine here — firing unwinds.
  if (obs::MetricsArmed()) {
    obs::Registry::Global()
        .GetCounter("fault.fires." + fired_name)
        ->Inc();
  }
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Instant(tracer.Intern("fault:" + fired_name));
    LINSYS_TRACE_ASYNC_INSTANT("flow.fault_fire", "flow",
                               obs::CurrentFlowId());
  }
  // Throw outside the lock so unwinding never holds the registry mutex.
  Panic(kind, std::move(message));
}

InjectSiteStats FaultInjector::StatsFor(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return InjectSiteStats{};
  }
  return InjectSiteStats{it->second.hits, it->second.fires};
}

std::uint64_t FaultInjector::TotalFires() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, s] : sites_) {
    total += s.fires;
  }
  return total;
}

std::vector<std::string> FaultInjector::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, s] : sites_) {
    if (s.mode != InjectMode::kDisarmed) {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace util
