// Shared vocabulary types for the SFI library (§3 of the paper).
#ifndef LINSYS_SRC_SFI_TYPES_H_
#define LINSYS_SRC_SFI_TYPES_H_

#include <cstdint>
#include <string_view>

namespace sfi {

// Dense domain identifier. Domain 0 is the root/manager context that exists
// before any protection domain is created.
using DomainId = std::uint32_t;
inline constexpr DomainId kRootDomain = 0;

// Why a remote invocation did not produce a value.
enum class CallError : std::uint8_t {
  kRevoked,       // the proxy was removed from the owner's reference table
  kDomainFailed,  // the target domain is in the Failed state (pre-recovery)
  kAccessDenied,  // the owner's policy rejected this caller/method pair
  kFault,         // the callee panicked during this invocation
};

std::string_view CallErrorName(CallError e);

// Domain lifecycle. Running -> Failed on a panic; Failed -> Running via
// recovery. Retired is terminal (domain destroyed by the manager).
enum class DomainState : std::uint8_t {
  kRunning,
  kFailed,
  kRetired,
};

std::string_view DomainStateName(DomainState s);

// Per-domain counters, exposed for tests and the bench harness.
struct DomainStats {
  std::uint64_t calls_ok = 0;
  std::uint64_t calls_revoked = 0;
  std::uint64_t calls_denied = 0;
  std::uint64_t faults = 0;
  std::uint64_t recoveries = 0;       // completed recoveries
  std::uint64_t recovery_panics = 0;  // recovery fns that themselves panicked
};

}  // namespace sfi

#endif  // LINSYS_SRC_SFI_TYPES_H_
