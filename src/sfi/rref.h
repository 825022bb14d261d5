// Remote references (§3, Figure 1).
//
// An RRef<T> is a smart pointer to an object living in another protection
// domain. It holds a *weak* handle to the proxy in the owner's reference
// table, so the owner retains complete control: it can intercept calls via
// its policy, or revoke the reference outright by removing the proxy — after
// which every invocation fails to upgrade the weak pointer and returns an
// error, exactly as in the paper.
//
// Invocation semantics mirror Rust's: the closure receives `T&`, a borrow
// valid only for the duration of the call; anything moved *into* the closure
// (e.g. a lin::Own argument) changes ownership permanently; anything returned
// by value moves out to the caller.
#ifndef LINSYS_SRC_SFI_RREF_H_
#define LINSYS_SRC_SFI_RREF_H_

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sfi/domain.h"
#include "src/sfi/obs.h"
#include "src/sfi/proxy.h"
#include "src/util/cycles.h"
#include "src/util/result.h"

namespace sfi {

template <typename T>
class RRef {
 public:
  // Empty rref; every call returns kRevoked.
  RRef() = default;

  // Remote invocation: borrow the remote object for the duration of `f`.
  // The call runs *inside* the owning domain (TLS domain id is switched) and
  // any exception it raises — a panic or any other — is converted to
  // CallError::kFault at this boundary after the stack unwinds back here —
  // the domain entry point.
  template <typename F>
  auto Call(F&& f, std::string_view method = {}) const
      -> util::Result<std::invoke_result_t<F&&, T&>, CallError> {
    using R = std::invoke_result_t<F&&, T&>;
    // Disarmed cost of the instrumentation below: this one relaxed load and
    // predictable branches on `armed` (the Figure-2 budget, DESIGN.md §obs).
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    ProxyHandle strong = proxy_.Upgrade();
    if (!strong.has_value()) {
      return util::Err(CallError::kRevoked);
    }
    auto* proxy = static_cast<Proxy<T>*>(strong->get());
    Domain* owner = proxy->owner();
    if (owner->state() != DomainState::kRunning) {
      return util::Err(CallError::kDomainFailed);
    }
    if (!owner->CheckAccess(ScopedDomain::Current(), method)) {
      owner->mutable_stats().calls_denied++;
      return util::Err(CallError::kAccessDenied);
    }
    ScopedDomain enter(owner->id());
    try {
      if constexpr (std::is_void_v<R>) {
        std::forward<F>(f)(proxy->object());
        owner->mutable_stats().calls_ok++;
        if (armed) {
          const SfiObs& m = SfiObs::Get();
          // The exemplar ties this crossing's histogram bucket to the flow
          // whose batch was in flight (0 outside flow context = no exemplar).
          m.crossing_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                obs::CurrentFlowId());
          m.calls->Inc();
        }
        LINSYS_TRACE_ASYNC_INSTANT("flow.stage", "flow", obs::CurrentFlowId());
        return util::Result<void, CallError>::Ok();
      } else {
        R result = std::forward<F>(f)(proxy->object());
        owner->mutable_stats().calls_ok++;
        if (armed) {
          const SfiObs& m = SfiObs::Get();
          m.crossing_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                obs::CurrentFlowId());
          m.calls->Inc();
        }
        LINSYS_TRACE_ASYNC_INSTANT("flow.stage", "flow", obs::CurrentFlowId());
        return util::Result<R, CallError>::Ok(std::move(result));
      }
    } catch (...) {
      owner->MarkFailed();
      return util::Err(CallError::kFault);
    }
  }

  // True while the proxy is still present in the owner's table. A revoked or
  // torn-down rref is permanently dead (recovery creates *new* rrefs).
  bool IsLive() const { return !proxy_.Expired(); }

  // Slot in the owner's reference table; the owner uses it to revoke.
  RefTable::Slot slot() const { return slot_; }
  DomainId owner_id() const { return owner_id_; }

 private:
  friend class Domain;

  RRef(ProxyWeakHandle proxy, RefTable::Slot slot, DomainId owner_id)
      : proxy_(std::move(proxy)), slot_(slot), owner_id_(owner_id) {}

  ProxyWeakHandle proxy_;
  RefTable::Slot slot_ = 0;
  DomainId owner_id_ = kRootDomain;
};

template <typename T>
RRef<T> Domain::Export(T object) {
  auto proxy = std::make_unique<Proxy<T>>(this, std::move(object));
  auto [slot, weak] = ref_table_.Insert(std::move(proxy));
  SfiObs::Get().exports->Inc();
  return RRef<T>(std::move(weak), slot, id_);
}

}  // namespace sfi

#endif  // LINSYS_SRC_SFI_RREF_H_
