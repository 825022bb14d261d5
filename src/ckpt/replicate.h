// Primary/backup replication over Checkpointable state — §5's second listed
// consumer of automatic state traversal ("checkpointing, transactions,
// replication ... involve snapshotting parts of program state").
//
// Apply() runs a mutation transactionally on the primary: if it panics, the
// undo log rolls the primary back and nothing propagates; if it returns,
// the post-state snapshot is installed on every replica. Replicas are
// therefore always at a mutation boundary (no torn states), and Failover()
// can promote any of them. Snapshot shipping reuses the aliasing-aware
// traversal, so replicated object graphs keep their internal sharing.
#ifndef LINSYS_SRC_CKPT_REPLICATE_H_
#define LINSYS_SRC_CKPT_REPLICATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/obs.h"
#include "src/ckpt/txn.h"
#include "src/obs/trace.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace ckpt {

template <Checkpointable T>
class ReplicatedState {
 public:
  // One primary plus `backup_count` replicas, all starting from `initial`.
  explicit ReplicatedState(T initial, std::size_t backup_count = 1)
      : primary_(std::move(initial)) {
    Snapshot genesis = Checkpoint(primary_);
    for (std::size_t i = 0; i < backup_count; ++i) {
      replicas_.push_back(Restore<T>(genesis));
    }
  }

  // Applies `mutator` to the primary transactionally and propagates the
  // result. Panics propagate to the caller after rollback; replicas never
  // observe the failed mutation.
  template <typename Fn>
  void Apply(Fn&& mutator) {
    LINSYS_TRACE_SPAN("ckpt.apply");
    {
      Transaction<T> txn(&primary_);
      std::forward<Fn>(mutator)(primary_);
      txn.Commit();
    }
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    Snapshot snap = Checkpoint(primary_);
    for (T& replica : replicas_) {
      // Storm hook: a replica restore dying mid-propagation. The primary
      // already committed, so the caller sees the panic with the primary
      // intact; replicas before the faulted one hold the new version,
      // later ones the previous version — each still at a mutation
      // boundary (Restore either completes or leaves the old value).
      LINSYS_FAULT_POINT("ckpt.replica_restore");
      replica = Restore<T>(snap);
    }
    if (armed) {
      const CkptObs& m = CkptObs::Get();
      m.replicate_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                             obs::CurrentFlowId());
      m.restores->Inc();
    }
    ++version_;
  }

  const T& primary() const { return primary_; }
  const T& replica(std::size_t i) const {
    LINSYS_ASSERT(i < replicas_.size(), "replica index out of range");
    return replicas_[i];
  }
  std::size_t replica_count() const { return replicas_.size(); }
  std::uint64_t version() const { return version_; }

  // Promotes replica `i` to primary (the old primary becomes a replica at
  // the promoted state — i.e. the failed node re-syncs on rejoin).
  void Failover(std::size_t i) {
    LINSYS_ASSERT(i < replicas_.size(), "replica index out of range");
    LINSYS_TRACE_SPAN("ckpt.failover");
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    std::swap(primary_, replicas_[i]);
    // Storm hook: promotion happened (the swap is unconditional) but the
    // re-sync of the remaining replicas dies. The new primary is valid;
    // un-resynced replicas still hold mutation-boundary states.
    LINSYS_FAULT_POINT("ckpt.failover_resync");
    Snapshot current = Checkpoint(primary_);
    for (T& replica : replicas_) {
      replica = Restore<T>(current);
    }
    if (armed) {
      const CkptObs& m = CkptObs::Get();
      m.failover_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                            obs::CurrentFlowId());
      m.restores->Inc();
    }
  }

 private:
  T primary_;
  std::vector<T> replicas_;
  std::uint64_t version_ = 0;
};

}  // namespace ckpt

#endif  // LINSYS_SRC_CKPT_REPLICATE_H_
