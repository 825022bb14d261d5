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
//   * A faulted stage domain is recovered where the fault happened: the
//     worker that saw it re-creates the domain before it releases its
//     pipeline, as the paper's §3 recovery does, so its next batch meets a
//     running stage. This holds for faults raised while a batch runs and
//     for faults raised inside a checkpoint capture or a failover restore.
//     A panic inside a recovery function is contained, and the worker
//     retries with its next batch; a stage that accumulates
//     Runtime::kMaxRecoveryAttempts recovery attempts without an intervening
//     good batch is *quarantined* for good and its per-stage DegradePolicy
//     takes over (drop / passthrough).
//   * A started runtime runs its workers and nothing else (plus the ops
//     server's thread when ops.unix_path is set). A worker that spends
//     longer than Runtime::kStallCycles on one sub-batch counts the stall
//     itself when the sub-batch ends; while it lasts, the
//     runtime.stalled_workers gauge and /healthz show it.
//
// Telemetry is backed by a per-Runtime obs::Registry: every worker counter
// (packets, batches, drops, faults, recoveries, stalls) is a registry
// Counter sharded one-cell-per-worker, queue depth/high-water are gauges
// read from the rings at scrape time, and per-sub-batch pipeline latency
// feeds a cycle Histogram — so
// RuntimeStats is a *consistent* scrape (counters monotone across scrapes,
// histogram buckets never torn; see src/obs/metrics.h) and the same data
// exports as Prometheus text or JSON via registry().Scrape().
// Per-stage health (faults, recoveries, quarantine counters, MTTR cycle
// samples) stays under the worker mutex and is folded into the same
// snapshot — bench_parallel uses the load distribution, bench_recovery the
// MTTR column. The registry is per-instance so sequential Runtimes in one
// process (the test pattern) never bleed counts into each other.
#ifndef LINSYS_SRC_NET_RUNTIME_H_
#define LINSYS_SRC_NET_RUNTIME_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
  CkptConfig ckpt;
  // Live ops endpoint (obs::OpsServer): started with the runtime when
  // ops.unix_path is set, serving /metrics, /metrics/delta, /trace,
  // /healthz from this runtime's registry while it runs. Off by default —
  // then no thread, no socket, and no new dispatch-path work beyond the
  // batch cycle stamp.
  obs::OpsServerConfig ops;
};

// One worker's slice of a runtime checkpoint: its pipeline's stage images,
// tagged with the worker index so failover can restore a single shard.
struct WorkerCkptImage {
  std::uint64_t index = 0;
  std::vector<StageImage> stages;
  LINSYS_CHECKPOINT_FIELDS(index, stages)
};

// The crash-consistent runtime snapshot CheckpointLive installs: every
// worker's stage state, each captured between two of its batches within one
// epoch.
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
  std::uint64_t stalls = 0;      // sub-batches that ran past kStallCycles
  std::size_t quarantined = 0;   // stages currently quarantined on this shard
  std::size_t queue_hwm = 0;     // deepest the ring was at a take
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
  // Epochs abandoned: a worker's pipeline lock was not taken by the
  // deadline, or the runtime was not accepting.
  std::uint64_t ckpt_epoch_failures = 0;
  std::uint64_t failovers = 0;            // completed worker failovers
  std::uint64_t failover_failures = 0;    // failovers with no snapshot yet
  obs::HistogramSnapshot ckpt_pause_cycles;      // per-worker capture pause
  obs::HistogramSnapshot failover_resync_cycles; // per completed failover
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
  // the batch's wait for its worker's pipeline lock (held by a checkpoint
  // capture, a failover restore or a Stats() fold).
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
  // Recovery attempts a stage may accumulate without an intervening good
  // batch before it is quarantined for good.
  static constexpr std::size_t kMaxRecoveryAttempts = 8;
  // A sub-batch whose pop-to-done time exceeds this many TSC cycles (about
  // 24 ms at a 2.1 GHz TSC) is a stall. A constant, not a calibration: the
  // calibration sleeps 20 ms, which every runtime's setup would pay.
  static constexpr std::uint64_t kStallCycles = 50'000'000;

  Runtime(RuntimeConfig config, std::vector<StageSpec> spec);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Spawns one thread per worker, and the ops server's when ops.unix_path is
  // set. Idempotent, safe to race with Shutdown (lifecycle transitions are
  // serialized); a no-op after Shutdown.
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
    } catch (...) {
      // An injected channel.send fault, or a failed allocation of the
      // steering buffers: the not-yet-sent shares died with the unwind
      // (flow descriptors only, no packet buffers) and their rings are
      // untouched — count it and refuse the batch.
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
  // CheckpointLive captures every worker in turn on the calling thread: it
  // takes the worker's pipeline lock (so the worker sits between two
  // batches, never mid-batch), saves its stage state, recovers any stage
  // whose SaveState panicked, and releases it. Once every worker is
  // captured, the combined image is moved into the runtime's snapshot slot,
  // replacing the previous one. Dispatch keeps accepting throughout — queues
  // absorb each worker's capture pause (measured per worker in
  // runtime.ckpt_pause_cycles, flow exemplars attached). Returns false
  // (installing nothing, with runtime.ckpt_epoch_failures_total counting it)
  // when a worker's lock is not taken within 1 s of the epoch's start or the
  // runtime is not accepting. Serialized with FailoverWorker; safe to call
  // from any non-worker thread.
  bool CheckpointLive();

  // Fails worker `victim` over to the snapshot: restores the victim's stage
  // state from its slice of the last installed image. The victim thread
  // keeps running — "failure" here is the state-loss event, and the
  // restore is the resync. Flows stay pinned: the victim's queued
  // sub-batches stay queued and replay on top of the restored state, as a
  // batch popped after a checkpoint capture does. Exactly-once holds across
  // the event: every dispatched item is processed, still queued, or counted
  // dropped. Returns false — counted in runtime.failover_failures_total,
  // with no Runtime state mutated — when no snapshot exists yet. Requires
  // ckpt.enabled.
  bool FailoverWorker(std::size_t victim);

  // Copy of the current snapshot (empty image before the first successful
  // CheckpointLive) — test/diagnostic introspection.
  RuntimeCkptImage CheckpointImageCopy();

  RuntimeStats Stats() const;

  // This runtime's metric registry — the same data Stats() folds, in
  // exporter form. Safe to call from any thread while workers run.
  obs::Registry& registry() { return registry_; }

  std::string ScrapePrometheus() const { return registry_.Scrape().ToPrometheus(); }

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
    // Serializes pipeline use and in-place recovery (worker thread) against
    // checkpoint captures, failover restores and Stats() folds, which run on
    // their callers' threads. Timed, so a capture can give up at its epoch's
    // deadline. Uncontended on the fast path.
    std::timed_mutex mu;
    // TSC stamp of the worker's pop of the sub-batch it is on, 0 while it
    // waits for one: RecordDelivery splits queue from service at it, and a
    // scrape reads it to see a worker stuck right now.
    std::atomic<std::uint64_t> busy_since{0};
    // Failed and quarantined stage groups on this shard, stored at the end of
    // every RecoverInPlace (under mu) so /healthz reads them without the
    // lock. (The worker counters live in the runtime's registry, sharded by
    // worker index.)
    std::atomic<std::size_t> failed_groups{0};
    std::atomic<std::size_t> quarantined_groups{0};
    // Flow id of the most recent batch this worker took up — the exemplar
    // attached to its checkpoint pause sample (which flow paid the pause)
    // and to the failover counter (both drivers read it from their own
    // threads, hence the relaxed atomic: an estimator, not an invariant).
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
    obs::Counter* worker_parks = nullptr;    // park path only, per worker
    obs::Counter* dispatch_waits = nullptr;  // park path only
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
  // Runs one popped sub-batch; returns the TSC stamp at which it was done.
  std::uint64_t ProcessFlows(Worker& w, const FlowBatch& flows);
  // Records delivery_latency_cycles plus its exact additive decomposition
  // (queue/service/fence) for a delivered batch that waited `fence` cycles
  // for its pipeline lock, splitting at w.busy_since. Returns the delivery
  // stamp.
  std::uint64_t RecordDelivery(Worker& w, const FlowBatch& flows,
                               std::uint64_t fence);
  // Counts `new_faults` (the stage groups the caller's call into w's
  // pipeline just failed) in runtime.faults_total, then recovers every
  // group the pipeline has Failed, on the calling thread, counting them in
  // runtime.recoveries_total, and publishes w's failed and quarantined group
  // counts. Caller holds w.mu.
  void RecoverInPlace(Worker& w, std::size_t new_faults);
  // Workers whose current sub-batch was popped more than kStallCycles ago.
  std::size_t StalledWorkers() const;
  // /healthz body for the ops server: lifecycle, quarantine and stall
  // census, and checkpoint epoch state. Runs on the server thread while
  // workers are live, reading only what they publish: no worker's lock.
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

  // Live-checkpoint state. ckpt_driver_mu_ serializes CheckpointLive with
  // FailoverWorker (one driver at a time). Each worker's pipeline lock is
  // the only fence a capture needs: no flow changes workers, so captures
  // taken one after another are mutually consistent.
  std::mutex ckpt_driver_mu_;
  std::uint64_t ckpt_epoch_seq_ = 0;  // under ckpt_driver_mu_
  // The last installed snapshot; empty until the first successful epoch.
  // Guarded by ckpt_driver_mu_.
  std::optional<RuntimeCkptImage> ckpt_state_;
};

}  // namespace net

#endif  // LINSYS_SRC_NET_RUNTIME_H_
