// Protection domains (§3).
//
// A Domain bundles: an identity (kept in thread-local storage while code of
// the domain runs, as the paper does), a reference table of exported objects,
// an access-control policy over remote invocations, a lifecycle state, and a
// user-provided recovery function.
//
// Isolation itself comes from the lin:: ownership discipline — a domain can
// only reach objects it allocated or was explicitly granted (DESIGN.md §2);
// the Domain class is the *management plane* the paper says is "what is
// missing for a complete SFI solution": lifecycle, revocation, policy,
// recovery.
#ifndef LINSYS_SRC_SFI_DOMAIN_H_
#define LINSYS_SRC_SFI_DOMAIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sfi/obs.h"
#include "src/sfi/ref_table.h"
#include "src/sfi/types.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"
#include "src/util/result.h"

namespace sfi {

template <typename T>
class RRef;

// RAII thread-local domain switch: remote invocations and Execute() enter
// the target domain's context, restoring the caller's on exit (including
// unwinds).
class ScopedDomain {
 public:
  explicit ScopedDomain(DomainId id);
  ~ScopedDomain();

  ScopedDomain(const ScopedDomain&) = delete;
  ScopedDomain& operator=(const ScopedDomain&) = delete;

  // The domain the calling thread is currently executing in.
  static DomainId Current();

 private:
  DomainId prev_;
};

class Domain {
 public:
  // Decides whether `caller` may invoke `method` on objects of this domain.
  using Policy = std::function<bool(DomainId caller, std::string_view method)>;
  // Re-initializes the domain from clean state after a fault; typically
  // re-exports fresh objects so the failure is transparent to clients.
  using RecoveryFn = std::function<void(Domain&)>;

  Domain(DomainId id, std::string name) : id_(id), name_(std::move(name)) {}

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }
  DomainState state() const { return state_.load(std::memory_order_acquire); }

  // Runs `f` inside this domain: the thread-local domain is switched, any
  // exception — a panic, std::bad_alloc, anything else — is caught at this
  // boundary (the paper's "unwind the stack of the calling thread to the
  // domain entry point"), and a fault marks the domain Failed.
  template <typename F>
  auto Execute(F&& f) -> util::Result<std::invoke_result_t<F&&>, CallError> {
    using R = std::invoke_result_t<F&&>;
    // Same armed-gated crossing instrumentation as RRef::Call: one relaxed
    // load when disarmed, a cycle histogram sample when armed.
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    if (state() != DomainState::kRunning) {
      return util::Err(CallError::kDomainFailed);
    }
    ScopedDomain enter(id_);
    try {
      // Inside the try and the domain context: an injected panic here is a
      // fault *of this domain*, contained exactly like an organic one.
      LINSYS_FAULT_POINT("sfi.execute");
      if constexpr (std::is_void_v<R>) {
        std::forward<F>(f)();
        stats_.calls_ok++;
        if (armed) {
          const SfiObs& m = SfiObs::Get();
          m.crossing_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                obs::CurrentFlowId());
          m.calls->Inc();
        }
        LINSYS_TRACE_ASYNC_INSTANT("flow.execute", "flow",
                                   obs::CurrentFlowId());
        return util::Result<void, CallError>::Ok();
      } else {
        R result = std::forward<F>(f)();
        stats_.calls_ok++;
        if (armed) {
          const SfiObs& m = SfiObs::Get();
          m.crossing_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                obs::CurrentFlowId());
          m.calls->Inc();
        }
        LINSYS_TRACE_ASYNC_INSTANT("flow.execute", "flow",
                                   obs::CurrentFlowId());
        return util::Result<R, CallError>::Ok(std::move(result));
      }
    } catch (...) {
      MarkFailed();
      return util::Err(CallError::kFault);
    }
  }

  // Moves `object` into a proxy in this domain's reference table and returns
  // the remote reference clients use to reach it. Defined in rref.h.
  template <typename T>
  RRef<T> Export(T object);

  // Revokes one exported object by slot; outstanding rrefs to it start
  // returning CallError::kRevoked.
  bool Revoke(RefTable::Slot slot) {
    const bool removed = ref_table_.Remove(slot);
    if (removed) {
      SfiObs::Get().revokes->Inc();
    }
    return removed;
  }

  void SetPolicy(Policy policy) { policy_ = std::move(policy); }
  void SetRecovery(RecoveryFn fn) { recovery_ = std::move(fn); }

  // Recovery (§3): clear the reference table (frees everything the domain
  // owns, expires all rrefs), transition back to Running, then let the
  // user-provided function rebuild state and re-populate the table.
  //
  // Hardened: a panic (or any other exception) raised *inside the recovery
  // function* is caught here — the domain goes back to Failed, it is counted
  // (stats().recovery_panics), and false is returned so supervisors can
  // re-queue the attempt instead of dying to an escaped exception.
  bool Recover() {
    // Recovery is the cold path, but its latency is a headline number
    // (paper: 4389 cycles), so the cycle cost is recorded whenever metrics
    // are armed and the span always lands in an armed trace.
    LINSYS_TRACE_SPAN("sfi.recover");
    // Stitch the recovery onto the faulting flow's async track: this runs on
    // the supervisor thread, so the id comes from the fault capture, not TLS.
    const std::uint64_t fault_flow = last_fault_flow();
    LINSYS_TRACE_ASYNC_SPAN("flow.recover", "flow", fault_flow);
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    ref_table_.Clear();
    state_.store(DomainState::kRunning, std::memory_order_release);
    if (recovery_) {
      ScopedDomain enter(id_);
      try {
        LINSYS_FAULT_POINT("sfi.recover");
        recovery_(*this);
      } catch (...) {
        // Not MarkFailed(): a broken recovery fn is not a fresh fault, it is
        // the same incident still unresolved.
        state_.store(DomainState::kFailed, std::memory_order_release);
        stats_.recovery_panics++;
        SfiObs::Get().recovery_panics->Inc();
        LINSYS_TRACE_INSTANT_ARG("sfi.recovery_panic", id_);
        return false;
      }
    }
    stats_.recoveries++;
    {
      const SfiObs& m = SfiObs::Get();
      m.recoveries->Inc();
      if (armed) {
        m.recovery_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                              fault_flow);
      }
    }
    // Incident resolved: the next fault belongs to a different flow.
    last_fault_flow_.store(0, std::memory_order_relaxed);
    LINSYS_TRACE_INSTANT_ARG("sfi.recovered", id_);
    return true;
  }

  // Terminal teardown: clear the table and refuse all future entry.
  void Retire() {
    ref_table_.Clear();
    state_.store(DomainState::kRetired, std::memory_order_release);
    SfiObs::Get().domains_retired->Inc();
  }

  bool CheckAccess(DomainId caller, std::string_view method) const {
    return !policy_ || policy_(caller, method);
  }

  void MarkFailed() {
    state_.store(DomainState::kFailed, std::memory_order_release);
    stats_.faults++;
    // The flow whose batch was in flight when the fault unwound: recovery
    // and quarantine run later on the supervisor thread (no TLS flow
    // context), so the id is parked here to stitch their spans onto the
    // faulting flow's track.
    last_fault_flow_.store(obs::CurrentFlowId(), std::memory_order_relaxed);
    // Fault paths are cold (a panic already unwound): always count, and
    // drop a trace instant carrying the failed domain's id.
    SfiObs::Get().faults->Inc();
    LINSYS_TRACE_INSTANT_ARG("sfi.fault", id_);
    LINSYS_TRACE_ASYNC_INSTANT("flow.fault", "flow", obs::CurrentFlowId());
  }

  // Flow id captured by the most recent MarkFailed (0 = none / cleared).
  std::uint64_t last_fault_flow() const {
    return last_fault_flow_.load(std::memory_order_relaxed);
  }

  RefTable& ref_table() { return ref_table_; }
  const DomainStats& stats() const { return stats_; }
  DomainStats& mutable_stats() { return stats_; }

 private:
  DomainId id_;
  std::string name_;
  std::atomic<DomainState> state_{DomainState::kRunning};
  std::atomic<std::uint64_t> last_fault_flow_{0};
  RefTable ref_table_;
  Policy policy_;
  RecoveryFn recovery_;
  DomainStats stats_;
};

}  // namespace sfi

#endif  // LINSYS_SRC_SFI_DOMAIN_H_
