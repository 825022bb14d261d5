// Undo-log transactions on Checkpointable state — the first of §5's "many
// techniques" beyond checkpointing itself ("transactions, replication,
// multiversion concurrency ... involve snapshotting parts of program
// state"). Because Checkpoint/Restore handle arbitrary derive-annotated
// types with aliasing, a transaction is just: snapshot on begin, drop the
// snapshot on commit, restore on abort.
//
// Scoped API: the RAII guard aborts on destruction unless committed, so a
// panic unwinding through a transaction automatically rolls the state back
// — transactional memory semantics from linear traversal alone.
#ifndef LINSYS_SRC_CKPT_TXN_H_
#define LINSYS_SRC_CKPT_TXN_H_

#include <cstdint>
#include <exception>
#include <utility>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/obs.h"
#include "src/obs/trace.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace ckpt {

template <Checkpointable T>
class Transaction {
 public:
  // Begins a transaction on `state` (not owned; must outlive the guard).
  explicit Transaction(T* state)
      : state_(state), undo_(Checkpoint(*state)) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // Keeps all mutations made since Begin.
  void Commit() {
    LINSYS_ASSERT(state_ != nullptr, "transaction already finished");
    state_ = nullptr;
  }

  // Rolls `state` back to its value at Begin.
  void Abort() {
    LINSYS_ASSERT(state_ != nullptr, "transaction already finished");
    LINSYS_TRACE_SPAN("ckpt.txn_abort");
    // Storm hook: a restore that dies mid-abort. The explicit-Abort caller
    // sees the panic with the state untouched (the undo snapshot survives).
    LINSYS_FAULT_POINT("ckpt.txn_restore");
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    *state_ = Restore<T>(undo_);
    if (armed) {
      const CkptObs& m = CkptObs::Get();
      m.txn_restore_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                               obs::CurrentFlowId());
      m.restores->Inc();
    }
    state_ = nullptr;
  }

  bool active() const { return state_ != nullptr; }

  // Uncommitted at scope exit (including unwinds) -> abort. noexcept(false)
  // because the injected restore fault below must unwind out to a
  // containment boundary (destructors default to noexcept, which would turn
  // the throw into std::terminate before the gate even mattered).
  ~Transaction() noexcept(false) {
    if (state_ != nullptr) {
      LINSYS_TRACE_SPAN("ckpt.txn_abort");
      // The same storm hook as Abort(), but only when *not* already
      // unwinding a panic: throwing from a destructor during unwind is
      // std::terminate, which no containment boundary can catch.
      if (std::uncaught_exceptions() == 0) {
        LINSYS_FAULT_POINT("ckpt.txn_restore");
      }
      const bool armed = obs::MetricsArmed();
      const std::uint64_t t0 = armed ? util::CycleStart() : 0;
      *state_ = Restore<T>(undo_);
      if (armed) {
        const CkptObs& m = CkptObs::Get();
        m.txn_restore_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                 obs::CurrentFlowId());
        m.restores->Inc();
      }
    }
  }

 private:
  T* state_;
  Snapshot undo_;
};

// Runs `mutator` transactionally: a panic inside rolls the state back and
// rethrows; normal return commits. Returns true on commit.
template <Checkpointable T, typename Fn>
bool Atomically(T* state, Fn&& mutator) {
  Transaction<T> txn(state);
  std::forward<Fn>(mutator)(*state);
  txn.Commit();
  return true;
}

}  // namespace ckpt

#endif  // LINSYS_SRC_CKPT_TXN_H_
