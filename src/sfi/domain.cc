#include "src/sfi/domain.h"

namespace sfi {
namespace {

// The paper: "we use thread-local store to store [the] ID of the current
// protection domain". Reading/writing one TLS word is part of the measured
// per-invocation overhead.
thread_local DomainId tls_current_domain = kRootDomain;

}  // namespace

ScopedDomain::ScopedDomain(DomainId id) : prev_(tls_current_domain) {
  tls_current_domain = id;
}

ScopedDomain::~ScopedDomain() { tls_current_domain = prev_; }

DomainId ScopedDomain::Current() { return tls_current_domain; }

std::string_view CallErrorName(CallError e) {
  switch (e) {
    case CallError::kRevoked:
      return "revoked";
    case CallError::kDomainFailed:
      return "domain-failed";
    case CallError::kAccessDenied:
      return "access-denied";
    case CallError::kFault:
      return "fault";
  }
  return "unknown";
}

std::string_view DomainStateName(DomainState s) {
  switch (s) {
    case DomainState::kRunning:
      return "running";
    case DomainState::kFailed:
      return "failed";
    case DomainState::kRetired:
      return "retired";
  }
  return "unknown";
}

}  // namespace sfi
