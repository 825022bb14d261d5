// Cached obs:: handles for the checkpoint/restore metrics.
//
// Same discipline as sfi::SfiObs: handles resolve once into a function-local
// static, and the restore paths only touch them while obs::MetricsArmed()
// is on — a disarmed restore pays one relaxed load + branch, nothing else.
//
// These live in the process-global registry: transactions and replicated
// state have value lifetimes (often stack-scoped), so per-instance
// registries would fragment the numbers that matter — "what does a rollback
// cost", pooled across every transaction in the process.
#ifndef LINSYS_SRC_CKPT_OBS_H_
#define LINSYS_SRC_CKPT_OBS_H_

#include "src/obs/metrics.h"

namespace ckpt {

struct CkptObs {
  obs::Counter* restores;            // completed restore-backed operations
  obs::Histogram* txn_restore_cycles;   // per Transaction abort/rollback
  obs::Histogram* replicate_cycles;     // per Apply propagation fan-out
  obs::Histogram* failover_cycles;      // per Failover promote + resync
  // Live-runtime checkpointing (net::Runtime::CheckpointLive): cycles from
  // epoch open to snapshot installed, i.e. each worker's lock wait and
  // capture, one after another, then the install.
  obs::Histogram* runtime_epoch_cycles;

  static const CkptObs& Get() {
    static const CkptObs s = [] {
      obs::Registry& r = obs::Registry::Global();
      constexpr std::size_t kShards = 4;  // TLS-sharded; ckpt paths are cold
      CkptObs m;
      m.restores = r.GetCounter("ckpt.restores_total", kShards);
      m.txn_restore_cycles = r.GetHistogram("ckpt.txn_restore_cycles", kShards);
      m.replicate_cycles = r.GetHistogram("ckpt.replicate_cycles", kShards);
      m.failover_cycles = r.GetHistogram("ckpt.failover_cycles", kShards);
      m.runtime_epoch_cycles =
          r.GetHistogram("ckpt.runtime_epoch_cycles", kShards);
      return m;
    }();
    return s;
  }
};

}  // namespace ckpt

#endif  // LINSYS_SRC_CKPT_OBS_H_
