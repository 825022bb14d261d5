// net::Runtime — N-worker sharded execution engine (the multi-core story).
//
// The paper's §3 argument is that zero-copy ownership transfer makes
// isolation nearly free; NetBricks scales by running one pipeline replica
// per core with RSS keeping each flow on one core. Runtime reproduces that
// shape in the simulator:
//
//   * Each worker thread owns a full replica of the pipeline — its own SFI
//     domains (one per stage, from its own DomainManager), its own Mempool,
//     and therefore its own flow state. Nothing is shared between workers
//     but the steering rings, so there are no locks on the packet path.
//   * A dispatcher (any producer thread) samples flows and steers *flow
//     descriptors* through an RssDispatcher, into one bounded ring of
//     reusable FlowBatch slots per worker (rss.h): no allocation and no
//     lock on the worker's side of the handoff, and a worker that finds its
//     ring empty polls briefly, then parks until a publish wakes it.
//     Steering descriptors instead of buffers is what makes the mempool
//     single-owner contract structural: frames are materialized from — and
//     returned to — the worker's own pool on the worker's own thread, so
//     cross-thread Free cannot be expressed. (This mirrors hardware RSS,
//     where the NIC hashes and steers before any buffer from the queue's
//     pool is used.)
//   * A supervisor thread recovers faulted stage domains under a retry
//     policy with exponential backoff; a panic inside a recovery function is
//     contained and re-queued; a stage that accumulates
//     SupervisionConfig::max_recovery_attempts failed recoveries without an
//     intervening good batch is *quarantined* and its per-stage
//     DegradePolicy takes over (drop / passthrough / fail-fast). The
//     supervisor doubles as a watchdog: a worker stuck inside one batch for
//     longer than a watchdog period is flagged in telemetry.
//
// Telemetry is backed by a per-Runtime obs::Registry: every worker counter
// (packets, batches, drops, faults, recoveries, stalls) is a registry
// Counter sharded one-cell-per-worker, queue depth/high-water are Gauges,
// and per-sub-batch pipeline latency feeds a cycle Histogram — so
// RuntimeStats is a *consistent* scrape (counters monotone across scrapes,
// histogram buckets never torn; see src/obs/metrics.h) and the same data
// exports as Prometheus text or JSON via ScrapePrometheus()/ScrapeJson().
// Per-stage health (faults, recoveries, quarantine counters, MTTR cycle
// samples) stays under the worker mutex and is folded into the same
// snapshot — bench_parallel uses the load distribution, bench_recovery the
// MTTR column. The registry is per-instance so sequential Runtimes in one
// process (the test pattern) never bleed counts into each other.
#ifndef LINSYS_SRC_NET_RUNTIME_H_
#define LINSYS_SRC_NET_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ckpt/replicate.h"
#include "src/net/batch.h"
#include "src/net/headers.h"
#include "src/net/mempool.h"
#include "src/net/packet.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/net/rss.h"
#include "src/net/schedule.h"
#include "src/obs/metrics.h"
#include "src/obs/ops_server.h"
#include "src/obs/trace.h"
#include "src/sfi/manager.h"
#include "src/util/cycles.h"
#include "src/util/panic.h"
#include "src/util/stats.h"

namespace net {

// Sequence numbers ride in the first 8 payload bytes (host order).
inline constexpr std::size_t kFlowSeqBytes = 8;

inline std::uint64_t ReadFlowSeq(const PacketBuf& pkt) {
  std::uint64_t seq = 0;
  std::memcpy(&seq, pkt.payload(), kFlowSeqBytes);
  return seq;
}

// Dispatcher-side sequencer: draws flows from a FlowSampler and stamps
// monotonically increasing per-flow sequence numbers.
class FlowFeeder {
 public:
  explicit FlowFeeder(FlowSampler* sampler)
      : sampler_(sampler), next_seq_(sampler->flow_count(), 0) {}

  FlowBatch Next(std::size_t n) {
    FlowBatch batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = sampler_->PickIndex();
      batch.Push(FlowWork{sampler_->FlowAt(idx), next_seq_[idx]++});
    }
    return batch;
  }

 private:
  FlowSampler* sampler_;
  std::vector<std::uint64_t> next_seq_;
};

// One pipeline stage of a Runtime spec. `make` is called once per worker
// (with the worker index) to build that worker's replica of the operator;
// it runs before the worker threads start and must not capture per-worker
// mutable state by reference. `degrade` is what the stage does to traffic
// once quarantined.
struct StageSpec {
  std::string name;
  std::function<std::unique_ptr<Operator>(std::size_t worker)> make;
  DegradePolicy degrade = DegradePolicy::kDrop;
};

// Supervisor policy knobs. The defaults favour fast recovery with a bounded
// crash-loop budget; tests tighten them for speed.
struct SupervisionConfig {
  // Recovery attempts a stage may accumulate without an intervening
  // successful batch before it is quarantined. 0 = never quarantine.
  std::size_t max_recovery_attempts = 8;
  // Supervisor wake cadence; also the watchdog resolution — a worker busy on
  // one batch across a full period without a heartbeat is flagged stuck.
  std::uint32_t watchdog_period_ms = 25;
  // Quarantine probation: after this many degraded batches through a
  // quarantined stage, the supervisor grants one probe batch via a freshly
  // built domain — success un-quarantines, failure re-quarantines with the
  // cool-down doubled (capped at IsolatedPipeline::kProbationCooldownMax).
  // 0 = quarantine stays terminal (the pre-probation behaviour).
  std::uint64_t probation_cooldown_batches = 0;
};

// Live checkpointing & failover (Runtime::CheckpointLive/FailoverWorker).
struct CkptConfig {
  bool enabled = false;
};

struct RuntimeConfig {
  std::size_t workers = 1;
  std::size_t queue_depth = 64;       // slots per worker ring (> 0)
  std::size_t pool_capacity = 4096;   // per-worker mempool slots
  // Every stage runs in a protection domain; the constructor refuses false
  // with a PanicError. The field is still declared only because nfbench
  // assigns `isolated = true`; it goes once that line does.
  bool isolated = true;
  // How the stage chain maps onto protection domains (src/net/schedule.h).
  // Default: interpreted, one domain per stage. Resolved once against the
  // spec's length and applied to every worker's replica before traffic.
  PipelineSchedule schedule;
  SupervisionConfig supervision;
  CkptConfig ckpt;
  // Live ops endpoint (obs::OpsServer): started with the runtime when
  // enabled, serving /metrics, /metrics/delta, /trace, /healthz from this
  // runtime's registry while it runs. Off by default — then no thread, no
  // socket, and no new dispatch-path work beyond the batch cycle stamp.
  obs::OpsServerConfig ops;
};

// One worker's slice of a runtime checkpoint: its pipeline's stage images,
// tagged with the worker index so failover can restore a single shard.
struct WorkerCkptImage {
  std::uint64_t index = 0;
  std::vector<StageImage> stages;
  LINSYS_CHECKPOINT_FIELDS(index, stages)
};

// The crash-consistent runtime snapshot CheckpointLive installs into a
// ckpt::ReplicatedState: every worker's stage state, captured at a per-flow
// batch boundary within one quiesce epoch.
struct RuntimeCkptImage {
  std::uint64_t epoch = 0;
  std::vector<WorkerCkptImage> workers;
  LINSYS_CHECKPOINT_FIELDS(epoch, workers)
};

// Snapshot of one worker's counters.
struct WorkerTelemetry {
  std::uint64_t batches = 0;     // sub-batches fully processed
  std::uint64_t packets = 0;     // packets out of the pipeline
  std::uint64_t drops = 0;       // pool-dry allocations + fault-lost packets
  std::uint64_t faults = 0;      // stage panics observed by this worker
  std::uint64_t recoveries = 0;  // stage domains re-exported for this worker
  std::uint64_t recovery_panics = 0;  // recovery fns contained mid-panic
  std::uint64_t stalls = 0;      // watchdog stuck-worker detections
  std::size_t quarantined = 0;   // stages currently quarantined on this shard
  std::size_t queue_hwm = 0;     // steering-ring depth high-water mark
  std::uint64_t parks = 0;       // times the worker parked on its empty ring
};

// Cross-worker aggregate for one pipeline stage (summed over replicas).
struct StageTelemetry {
  std::string name;
  DegradePolicy policy = DegradePolicy::kDrop;
  std::size_t quarantined_replicas = 0;
  std::uint64_t faults = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_panics = 0;
  std::uint64_t quarantine_drop_pkts = 0;
  std::uint64_t passthrough_batches = 0;
  std::uint64_t failfast_batches = 0;
  // Quarantine probation (SupervisionConfig::probation_cooldown_batches).
  std::uint64_t probes = 0;          // probe batches granted
  std::uint64_t unquarantines = 0;   // probes that brought a replica back
  std::uint64_t requarantines = 0;   // probes that failed
  util::Samples mttr_cycles;  // pooled across replicas
};

struct RuntimeStats {
  std::vector<WorkerTelemetry> workers;
  WorkerTelemetry totals;              // summed; queue_hwm is the max
  std::vector<StageTelemetry> stages;  // per stage, summed over replicas
  std::uint64_t dispatch_calls = 0;    // input batches steered
  std::uint64_t sub_batches = 0;       // per-worker sub-batches enqueued
  std::uint64_t rejected_dispatches = 0;  // Dispatch() outside Start..Shutdown
  // Silent-loss accounting (bugfix): sub-batches a closed worker ring
  // refused at dispatch, and the flow descriptors dropped with them.
  std::uint64_t steer_refused_sub_batches = 0;
  std::uint64_t steer_dropped_items = 0;
  // Wakes: parks of workers on empty rings (the per-worker split is in
  // WorkerTelemetry::parks), and of producers on full rings.
  std::uint64_t worker_parks = 0;
  std::uint64_t dispatch_waits = 0;
  // Live checkpointing & failover.
  std::uint64_t ckpt_epochs = 0;          // snapshots installed
  std::uint64_t ckpt_epoch_failures = 0;  // epochs abandoned (timeout/fault)
  std::uint64_t failovers = 0;            // completed worker failovers
  std::uint64_t failover_failures = 0;    // failovers refused by a fault
  // Stage images a restore refused because they named a stage the pipeline
  // does not have (checkpoint taken under a different pipeline shape).
  std::uint64_t ckpt_restore_mismatches = 0;
  std::uint64_t unquarantines = 0;        // probation probes that succeeded
  std::uint64_t requarantines = 0;        // probation probes that failed
  obs::HistogramSnapshot ckpt_pause_cycles;      // per-worker quiesce pause
  obs::HistogramSnapshot failover_resync_cycles; // per FailoverWorker call
  util::Samples packets_per_worker;    // load distribution across shards
  // Pipeline latency per sub-batch, pooled over workers (consistent
  // histogram snapshot: sum(buckets) == count even while workers run).
  obs::HistogramSnapshot batch_cycles;
  // End-to-end delivery latency per sub-batch: dispatch-time stamp to
  // delivery, queue wait included. This is the client-visible SLO quantity
  // the ops server windows per delta scrape.
  obs::HistogramSnapshot delivery_latency_cycles;
  // Additive decomposition of delivery latency, recorded per delivered
  // sub-batch (all three every time, zeros included, so the counts match and
  // queue + service + fence == delivery exactly on the sums):
  // queue = dispatch→pop wait, service = pop→delivery minus fence, fence =
  // checkpoint-capture stall.
  obs::HistogramSnapshot latency_queue_cycles;
  obs::HistogramSnapshot latency_service_cycles;
  obs::HistogramSnapshot latency_fence_cycles;
  // Mempool occupancy across all worker pools at scrape time.
  std::uint64_t mempool_in_use = 0;
  std::uint64_t mempool_in_use_hwm = 0;  // max over workers
  std::uint64_t mempool_alloc_failures = 0;

  std::string Summary() const;
};

class Runtime {
 public:
  Runtime(RuntimeConfig config, std::vector<StageSpec> spec);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Spawns the worker and supervisor threads. Idempotent, safe to race with
  // Shutdown (lifecycle transitions are serialized); a no-op after Shutdown.
  void Start();

  // Steers a batch of flow descriptors to the workers. Blocks while a
  // worker's ring is full (backpressure). Safe to call from
  // multiple producer threads, and defined at any lifecycle point: before
  // Start() and after Shutdown() the batch is refused — the call returns
  // false and RuntimeStats::rejected_dispatches counts it.
  bool Dispatch(FlowBatch batch) {
    if (!accepting_.load(std::memory_order_acquire)) {
      telemetry_.rejected_dispatches->Inc();
      return false;
    }
    LINSYS_TRACE_SPAN("runtime.dispatch");
    // Flow correlation starts here: one process-unique id per dispatched
    // batch, stamped onto the batch (and by RSS into its per-worker
    // slots) and opening the flow's async track. Cost when tracing
    // and net metrics are off: one relaxed RMW per *batch*.
    const std::uint64_t flow_id = obs::NextFlowId();
    batch.set_flow_id(flow_id);
    // SLO clock starts now: the stamp rides the batch (and its sub-batches)
    // to delivery, where the always-on runtime.delivery_latency_cycles
    // histogram reads it. Cost here is one cycle read + one plain store per
    // dispatched *batch*.
    batch.set_dispatch_tsc(util::CycleStart());
    LINSYS_TRACE_ASYNC_SPAN("flow.dispatch", "flow", flow_id);
    const bool armed = obs::MetricsArmed();
    const std::uint64_t t0 = armed ? util::CycleStart() : 0;
    try {
      rss_.Dispatch(std::move(batch));
    } catch (const util::PanicError&) {
      // An injected channel.send fault: the not-yet-sent shares died with
      // the unwind (flow descriptors only, no packet buffers) and their
      // rings are untouched — count it and refuse the batch.
      telemetry_.dispatch_faults->Inc();
      return false;
    }
    if (armed) {
      telemetry_.dispatch_cycles->RecordWithExemplar(util::CycleEnd() - t0,
                                                     flow_id);
    }
    return true;
  }

  // Which worker a flow is pinned to: RssDispatcher's seeded tuple hash,
  // range-reduced by multiply-shift, stable for the runtime's lifetime.
  std::size_t WorkerFor(const FiveTuple& tuple) const {
    return rss_.WorkerForTuple(tuple);
  }

  // Closes the steering rings, lets workers drain them, joins all
  // threads. Idempotent and safe to call concurrently (including with
  // Start); called by the destructor if needed. Shutdown is terminal: a
  // later Start() is a no-op.
  void Shutdown();

  // --- Live checkpointing & failover (CkptConfig) ------------------------
  //
  // CheckpointLive opens a quiesce epoch: every worker, at its next per-flow
  // batch boundary (between FlowBatches — never mid-batch), captures its
  // stage state and deposits it; once all workers have deposited, the
  // combined image is installed into the replicated runtime snapshot.
  // Dispatch keeps accepting throughout — queues absorb each worker's
  // capture pause (measured per worker in runtime.ckpt_pause_cycles, flow
  // exemplars attached). Returns false (installing nothing, with
  // runtime.ckpt_epoch_failures_total counting it) when the quiesce times
  // out, a replica restore faults (injected ckpt.replica_restore), or the
  // runtime is not accepting. Serialized with FailoverWorker; safe to call
  // from any non-worker thread.
  bool CheckpointLive();

  // Fails worker `victim` over to the replicated snapshot: promotes a
  // replica (ckpt::ReplicatedState::Failover — the injectable
  // ckpt.failover_resync point fires inside) and restores the victim's stage
  // state from the promoted image. The victim thread keeps running —
  // "failure" here is the state-loss event, and the restored replica state
  // is the resync. Flows stay pinned: the victim's queued sub-batches stay
  // queued and replay on top of the restored state, as a batch popped after
  // a checkpoint capture does. Exactly-once holds across the event: every
  // dispatched item is processed, still queued, or counted dropped. Returns
  // false — counted in runtime.failover_failures_total, with no Runtime
  // state mutated — when no snapshot exists yet or the resync faults
  // (retryable). Requires ckpt.enabled and at least 2 workers.
  bool FailoverWorker(std::size_t victim);

  // Copy of the current primary snapshot (empty image before the first
  // successful CheckpointLive) — test/diagnostic introspection.
  RuntimeCkptImage CheckpointImageCopy();

  RuntimeStats Stats() const;

  // This runtime's metric registry — the same data Stats() folds, in
  // exporter form. Safe to call from any thread while workers run.
  obs::Registry& registry() { return registry_; }

  std::string ScrapePrometheus() const { return registry_.Scrape().ToPrometheus(); }
  std::string ScrapeJson() const { return registry_.Scrape().ToJson(); }

 private:
  // Every materialized frame is kFrameLen bytes (the 64 B Ethernet
  // minimum), built in a mempool buffer of kBufSize bytes.
  static constexpr std::uint16_t kFrameLen = 64;
  static constexpr std::size_t kBufSize = 2048;

  struct Worker {
    std::size_t index = 0;
    Mempool pool;
    sfi::DomainManager mgr;
    IsolatedPipeline isolated{&mgr};
    // Serializes pipeline use (worker thread) against stage recovery and
    // health snapshots (supervisor thread, Stats). Uncontended on the fast
    // path: the supervisor only takes it on its periodic wakes.
    std::mutex mu;
    // Watchdog signals: busy is true while a sub-batch is being processed,
    // heartbeat increments once per completed sub-batch. Stuck = busy with
    // an unmoving heartbeat across a watchdog period. (All other worker
    // counters live in the runtime's registry, sharded by worker index.)
    std::atomic<bool> busy{false};
    std::atomic<std::uint64_t> heartbeat{0};
    // Checkpoint-epoch cursor, touched only by the owning worker thread: the
    // last ckpt_gen_ this worker captured for. A mismatch at a batch
    // boundary triggers MaybeCaptureCheckpoint.
    std::uint64_t ckpt_seen_gen = 0;
    // Flow id of the most recent batch this worker processed — the exemplar
    // attached to its checkpoint pause sample (which flow paid the pause)
    // and to the failover counter (the failover driver reads it from its own
    // thread, hence the relaxed atomic: an estimator, not an invariant).
    std::atomic<std::uint64_t> last_flow_id{0};
    std::thread thread;

    Worker(std::size_t idx, const RuntimeConfig& cfg)
        : index(idx), pool(cfg.pool_capacity, kBufSize) {}
  };

  // Cached registry handles: resolved once in the constructor, then the
  // packet path only touches its own worker's shard cell.
  struct Telemetry {
    obs::Counter* batches = nullptr;
    obs::Counter* packets = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* stalls = nullptr;
    obs::Counter* rejected_dispatches = nullptr;
    obs::Counter* dispatch_faults = nullptr;
    obs::Counter* ckpt_epochs = nullptr;
    obs::Counter* ckpt_epoch_failures = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* failover_failures = nullptr;
    obs::Counter* ckpt_restore_mismatches = nullptr;
    obs::Counter* unquarantines = nullptr;
    obs::Counter* requarantines = nullptr;
    obs::Counter* worker_parks = nullptr;    // park path only, per worker
    obs::Counter* dispatch_waits = nullptr;  // park path only
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_hwm = nullptr;
    obs::Histogram* batch_cycles = nullptr;
    obs::Histogram* delivery_latency_cycles = nullptr;  // always-on (SLO)
    // Always-on decomposition of the SLO histogram (see RuntimeStats).
    obs::Histogram* latency_queue_cycles = nullptr;
    obs::Histogram* latency_service_cycles = nullptr;
    obs::Histogram* latency_fence_cycles = nullptr;
    obs::Histogram* dispatch_cycles = nullptr;  // armed only
    obs::Histogram* ckpt_pause_cycles = nullptr;      // per-worker shards
    obs::Histogram* failover_resync_cycles = nullptr;
  };

  void WorkerMain(Worker& w);
  void ProcessFlows(Worker& w, const FlowBatch& flows);
  // Records delivery_latency_cycles plus its exact additive decomposition
  // (queue/service/fence) for a delivered batch. No-op when the batch
  // carries no dispatch stamp.
  void RecordDelivery(Worker& w, const FlowBatch& flows);
  void SupervisorMain();
  void NotifyFault();
  // One supervisor recovery sweep over all workers; returns true while any
  // stage is still Failed (i.e. another pass is needed).
  bool RecoveryPass();
  // Worker-side half of the checkpoint epoch: called at every batch
  // boundary; when ckpt_gen_ has advanced past this worker's cursor, capture
  // its stage state (the measured pause) and deposit it for the driver.
  // Returns the pause in cycles (0 when no capture ran) so the caller can
  // charge the stall to the batch it delayed (latency_fence_cycles).
  std::uint64_t MaybeCaptureCheckpoint(Worker& w);
  // /healthz body for the ops server: lifecycle, quarantine census, and
  // checkpoint epoch state. Runs on the server thread while workers
  // are live (per-stage health is read under each worker's mutex).
  std::string HealthzJson();

  RuntimeConfig config_;
  // Declared before rss_ and workers_: the rings count parks into it, and
  // worker threads (joined in ~Worker via Shutdown) can never outlive the
  // metrics they write to.
  obs::Registry registry_;
  RssDispatcher rss_;
  Telemetry telemetry_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::string> stage_names_;
  std::vector<DegradePolicy> stage_policies_;
  std::thread supervisor_;
  // Live ops endpoint, started after the workers in Start() and stopped
  // first in Shutdown() (it reads registry_ and worker state, so it must
  // never outlive them). Guarded by lifecycle_mu_ for create/destroy.
  std::unique_ptr<obs::OpsServer> ops_server_;

  // Lifecycle: Start/Shutdown may be called from any threads in any order;
  // lifecycle_mu_ serializes the transitions, accepting_ gates Dispatch
  // without taking a lock on the steering path.
  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> accepting_{false};

  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;
  bool fault_pending_ = false;

  // Live-checkpoint epoch state. ckpt_driver_mu_ serializes CheckpointLive
  // with FailoverWorker (one driver at a time). The epoch protocol itself:
  // the driver bumps ckpt_gen_; each worker compares ckpt_gen_ to its
  // thread-local cursor at batch boundaries, captures, and deposits a
  // (gen, image) pair into ckpt_pending_ under ckpt_mu_; the driver collects
  // until all workers deposited for the current gen or the quiesce timeout
  // passes. Deposits carry the gen so a straggler from an abandoned epoch can
  // never pollute the next one. No flow changes workers, so the per-worker
  // captures need no fence to be mutually consistent.
  std::mutex ckpt_driver_mu_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  std::vector<std::pair<std::uint64_t, WorkerCkptImage>> ckpt_pending_;
  std::atomic<std::uint64_t> ckpt_gen_{0};
  std::uint64_t ckpt_epoch_seq_ = 0;  // under ckpt_driver_mu_
  // The replicated snapshot; created on the first successful epoch. Guarded
  // by ckpt_driver_mu_.
  std::unique_ptr<ckpt::ReplicatedState<RuntimeCkptImage>> ckpt_state_;
};

}  // namespace net

#endif  // LINSYS_SRC_NET_RUNTIME_H_
