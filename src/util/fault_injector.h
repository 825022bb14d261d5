// Deterministic fault-injection framework.
//
// The paper's recovery story (§3) is only as strong as the faults it has been
// exercised against. Instead of bespoke panicking operators per experiment,
// trusted code declares named *injection sites* with LINSYS_FAULT_POINT and
// tests/benches arm an injection *plan* against them: fire once, fire every
// Nth hit, or fire with probability p from a seeded per-site stream. A firing
// site raises a normal util::Panic of a chosen PanicKind, so an injected
// fault is indistinguishable from an organic one to every layer above —
// domains fail, workers recover them, quarantine policies trigger.
//
// Determinism: every-Nth and one-shot plans depend only on the per-site hit
// count; probability plans draw from a splitmix64 stream seeded from
// (global seed, site name), so a single-threaded run with a fixed seed fires
// at exactly the same hits every time. Under multi-threaded storms the *set*
// of decisions per site is still seed-determined; only their assignment to
// threads varies with scheduling.
//
// Thread-tag scoping: a thread may declare a tag (net::Runtime tags its
// workers "net.worker:<i>") and a plan armed under "<tag>/<site>" — e.g.
// "net.worker:2/channel.recv" — fires only when that thread hits that site,
// so chaos runs can target one shard. A worker recovers the stages it
// faulted itself, so "net.worker:2/sfi.recover" reaches shard 2's recovery
// functions (all but a failover's, which run on the failover's caller).
// Tagged and untagged plans compose: a hit evaluates the tagged plan first,
// then the plain site plan.
//
// Cost when disarmed: one relaxed atomic load per site hit (the macro
// early-outs before any lock or lookup), cheap enough to leave compiled into
// the packet path in all build modes. The tag machinery adds nothing to a
// run without tagged plans: Hit consults the thread tag only while the
// count of armed "<tag>/<site>" plans (one relaxed load) is nonzero.
#ifndef LINSYS_SRC_UTIL_FAULT_INJECTOR_H_
#define LINSYS_SRC_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/panic.h"

namespace util {

enum class InjectMode : std::uint8_t {
  kDisarmed,
  kOneShot,      // fire on the next hit, then disarm
  kEveryNth,     // fire on every Nth hit (counted from arming)
  kProbability,  // fire with probability p per hit (seeded stream)
};

// Per-site counters, snapshot via FaultInjector::StatsFor.
struct InjectSiteStats {
  std::uint64_t hits = 0;   // hits observed while a plan was armed
  std::uint64_t fires = 0;  // hits that raised a panic
};

// Thread-safe global registry of injection plans. Use the Global() instance;
// separate instances exist only so unit tests can run hermetically.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  static FaultInjector& Global();

  // Reseeds the probability streams. Affects plans armed *after* the call
  // (each plan captures its stream state at arm time), so the idiom is
  // Reset(); Seed(s); Arm...(...).
  void Seed(std::uint64_t seed);

  // Plan names are either a bare site ("channel.recv") or thread-scoped as
  // "<tag>/<site>" ("net.worker:2/channel.recv") — the scoped form fires
  // only on threads that declared the tag via SetThreadTag.
  void ArmOneShot(const std::string& site,
                  PanicKind kind = PanicKind::kExplicit);
  // n >= 1; n == 1 fires on every hit.
  void ArmEveryNth(const std::string& site, std::uint64_t n,
                   PanicKind kind = PanicKind::kExplicit);
  // p in [0, 1].
  void ArmProbability(const std::string& site, double p,
                      PanicKind kind = PanicKind::kExplicit);

  // Declares the calling thread's injection tag (empty = untagged). The tag
  // is process-wide state shared by every FaultInjector instance — it names
  // the thread, not a registry. Survives until overwritten; long-lived
  // runtime threads set it once at startup.
  static void SetThreadTag(std::string tag);
  static const std::string& ThreadTag();
  // RAII helper for tests: tags on construction, restores on destruction.
  class ScopedThreadTag {
   public:
    explicit ScopedThreadTag(std::string tag) : prev_(ThreadTag()) {
      SetThreadTag(std::move(tag));
    }
    ~ScopedThreadTag() { SetThreadTag(std::move(prev_)); }
    ScopedThreadTag(const ScopedThreadTag&) = delete;
    ScopedThreadTag& operator=(const ScopedThreadTag&) = delete;

   private:
    std::string prev_;
  };

  // Stops a site from firing; its stats survive until Reset().
  void Disarm(const std::string& site);

  // Disarms every site, clears all stats, restores the default seed.
  void Reset();

  // True when at least one plan is armed — the macro's cheap early-out.
  bool armed() const {
    return armed_sites_.load(std::memory_order_relaxed) > 0;
  }

  // The hook body: evaluates `site`'s plan and throws PanicError when it
  // fires. No-op (beyond the map lookup) for sites without an armed plan.
  // Prefer the LINSYS_FAULT_POINT macro, which skips even the lookup while
  // nothing at all is armed.
  void Hit(std::string_view site);

  InjectSiteStats StatsFor(const std::string& site) const;
  std::uint64_t TotalFires() const;
  std::vector<std::string> ArmedSites() const;

 private:
  struct Site {
    InjectMode mode = InjectMode::kDisarmed;
    PanicKind kind = PanicKind::kExplicit;
    std::uint64_t every_nth = 0;
    double probability = 0.0;
    std::uint64_t rng_state = 0;  // splitmix64 stream, per site
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    bool oneshot_pending = false;
  };

  // Arms `site` with common bookkeeping; caller fills mode-specific fields.
  Site& Arm(const std::string& site, InjectMode mode, PanicKind kind);
  // Evaluates one plan entry under mu_; true when it fired (kind/message
  // filled in). The tagged variant of Hit calls this twice.
  bool EvaluateLocked(const std::string& name, PanicKind* kind);
  static bool IsTagged(const std::string& name) {
    return name.find('/') != std::string::npos;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, Site> sites_;
  std::atomic<std::size_t> armed_sites_{0};
  // Armed plans whose name is "<tag>/<site>". While zero, Hit never reads
  // the thread tag or builds a scoped lookup key — the untagged fast path
  // is unchanged by the feature existing.
  std::atomic<std::size_t> tagged_plans_{0};
  std::uint64_t seed_ = kDefaultSeed;

  static constexpr std::uint64_t kDefaultSeed = 0x5eedfa017ba5e5ULL;
};

}  // namespace util

// Declares a named injection site. `site` is a string literal such as
// "op.firewall" or "sfi.recover"; the registry is global, so the same name
// used by every worker replica forms one storm-wide site.
#define LINSYS_FAULT_POINT(site)                  \
  do {                                            \
    if (::util::FaultInjector::Global().armed()) {\
      ::util::FaultInjector::Global().Hit(site);  \
    }                                             \
  } while (0)

#endif  // LINSYS_SRC_UTIL_FAULT_INJECTOR_H_
