// Domain manager: creates, finds, recovers, and retires protection domains —
// the "management plane to control domain lifecycle" of §3.
#ifndef LINSYS_SRC_SFI_MANAGER_H_
#define LINSYS_SRC_SFI_MANAGER_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sfi/domain.h"
#include "src/sfi/types.h"

namespace sfi {

class DomainManager {
 public:
  DomainManager() = default;
  DomainManager(const DomainManager&) = delete;
  DomainManager& operator=(const DomainManager&) = delete;

  // Creates a new protection domain. The returned reference stays valid for
  // the manager's lifetime (retired domains are kept so that rrefs holding
  // Domain pointers never dangle; their tables are already empty).
  Domain& Create(std::string name);

  // nullptr if the id was never allocated.
  Domain* Find(DomainId id);

  // Clears the domain's table and re-runs its recovery function. Returns
  // false if the domain is retired (terminal) or if the recovery function
  // itself panicked (the domain stays Failed; see Domain::Recover).
  bool Recover(Domain& domain);

  // Attempts recovery of every domain currently in the Failed state; returns
  // how many completed. A recovery function that panics is contained (its
  // domain stays Failed and is picked up by the next call) — the panic never
  // escapes to the calling thread.
  std::size_t RecoverAllFailed();

  // Terminal teardown of one domain.
  void Retire(Domain& domain) { domain.Retire(); }

  std::size_t domain_count() const;

  // Sum of per-domain counters, for tests and bench reporting.
  DomainStats AggregateStats() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Domain>> domains_;
};

}  // namespace sfi

#endif  // LINSYS_SRC_SFI_MANAGER_H_
