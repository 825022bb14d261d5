#include "src/net/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "src/ckpt/obs.h"
#include "src/obs/profiler.h"
#include "src/util/cycles.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {
namespace {

// CheckpointLive must take every worker's pipeline lock within this long of
// the epoch's start, or it abandons the epoch (counted in
// runtime.ckpt_epoch_failures_total; no state is installed).
constexpr std::chrono::milliseconds kCkptQuiesceTimeout{1000};

}  // namespace

std::string RuntimeStats::Summary() const {
  std::string s;
  s += "workers=" + std::to_string(workers.size());
  s += " packets=" + std::to_string(totals.packets);
  s += " batches=" + std::to_string(totals.batches);
  s += " drops=" + std::to_string(totals.drops);
  s += " faults=" + std::to_string(totals.faults);
  s += " recoveries=" + std::to_string(totals.recoveries);
  s += " recovery_panics=" + std::to_string(totals.recovery_panics);
  s += " quarantined=" + std::to_string(totals.quarantined);
  s += " stalls=" + std::to_string(totals.stalls);
  s += " queue_hwm=" + std::to_string(totals.queue_hwm);
  s += " dispatched=" + std::to_string(dispatch_calls);
  s += " sub_batches=" + std::to_string(sub_batches);
  s += " worker_parks=" + std::to_string(worker_parks);
  s += " dispatch_waits=" + std::to_string(dispatch_waits);
  if (rejected_dispatches > 0) {
    s += " rejected=" + std::to_string(rejected_dispatches);
  }
  if (steer_refused_sub_batches > 0 || steer_dropped_items > 0) {
    s += " steer_refused=" + std::to_string(steer_refused_sub_batches);
    s += " steer_dropped=" + std::to_string(steer_dropped_items);
  }
  if (ckpt_epochs > 0 || ckpt_epoch_failures > 0 || failovers > 0 ||
      failover_failures > 0) {
    s += " ckpt_epochs=" + std::to_string(ckpt_epochs);
    s += " ckpt_failures=" + std::to_string(ckpt_epoch_failures);
    s += " failovers=" + std::to_string(failovers);
    s += " failover_failures=" + std::to_string(failover_failures);
    s += "\n  ckpt_pause_cycles: " + ckpt_pause_cycles.Summary();
  }
  s += " | load: " + packets_per_worker.Summary();
  s += "\n  batch_cycles: " + batch_cycles.Summary();
  s += "\n  delivery_latency_cycles: " + delivery_latency_cycles.Summary();
  if (latency_queue_cycles.count > 0) {
    s += "\n  latency_queue_cycles: " + latency_queue_cycles.Summary();
    s += "\n  latency_service_cycles: " + latency_service_cycles.Summary();
    s += "\n  latency_fence_cycles: " + latency_fence_cycles.Summary();
  }
  s += "\n  mempool: in_use=" + std::to_string(mempool_in_use);
  s += " hwm=" + std::to_string(mempool_in_use_hwm);
  s += " alloc_failures=" + std::to_string(mempool_alloc_failures);
  for (const StageTelemetry& st : stages) {
    s += "\n  stage[" + st.name + "] policy=";
    s += DegradePolicyName(st.policy);
    s += " faults=" + std::to_string(st.faults);
    s += " recoveries=" + std::to_string(st.recoveries);
    s += " recovery_panics=" + std::to_string(st.recovery_panics);
    s += " quarantined=" + std::to_string(st.quarantined_replicas);
    s += " qdrop_pkts=" + std::to_string(st.quarantine_drop_pkts);
    s += " passthrough=" + std::to_string(st.passthrough_batches);
    s += " | mttr_cycles: " + st.mttr_cycles.Summary();
  }
  return s;
}

Runtime::Runtime(RuntimeConfig config, std::vector<StageSpec> spec)
    : config_(config),
      rss_(config.workers, config.queue_depth,
           registry_.GetCounter("runtime.worker_parks_total", config.workers),
           registry_.GetCounter("runtime.dispatch_waits_total")) {
  static_assert(kFrameLen >= kPayloadOffset + kFlowSeqBytes,
                "frame too small for the per-flow sequence stamp");
  LINSYS_ASSERT(config_.isolated,
                "every runtime stage runs in a protection domain "
                "(RuntimeConfig::isolated must stay true)");
  // One shard per worker: worker w only ever touches cell w, so the packet
  // path is contention-free and Stats() can report per-worker values.
  const std::size_t shards = config_.workers;
  telemetry_.batches = registry_.GetCounter("runtime.batches_total", shards);
  telemetry_.packets = registry_.GetCounter("runtime.packets_total", shards);
  telemetry_.drops = registry_.GetCounter("runtime.drops_total", shards);
  telemetry_.faults = registry_.GetCounter("runtime.faults_total", shards);
  telemetry_.recoveries =
      registry_.GetCounter("runtime.recoveries_total", shards);
  telemetry_.stalls = registry_.GetCounter("runtime.stalls_total", shards);
  // Incremented by the rings, on their park paths only (rss.h): a worker
  // parking on its empty ring, a producer parking on a full one.
  telemetry_.worker_parks =
      registry_.GetCounter("runtime.worker_parks_total", shards);
  telemetry_.dispatch_waits =
      registry_.GetCounter("runtime.dispatch_waits_total");
  telemetry_.rejected_dispatches =
      registry_.GetCounter("runtime.rejected_dispatches_total");
  telemetry_.dispatch_faults =
      registry_.GetCounter("runtime.dispatch_faults_total");
  // Producer-side, so TLS-sharded rather than per-worker (any thread may
  // call Dispatch); only recorded while metrics are armed.
  telemetry_.dispatch_cycles =
      registry_.GetHistogram("runtime.dispatch_cycles", 4);
  telemetry_.batch_cycles =
      registry_.GetHistogram("runtime.batch_cycles", shards);
  // Always-on SLO histogram: end-to-end dispatch→delivery latency per
  // sub-batch, queue wait included. This is what the ops server windows
  // into slo_p99/slo_p999 per /metrics/delta scrape, so it cannot be gated
  // on arming — a live operator must always see it.
  telemetry_.delivery_latency_cycles =
      registry_.GetHistogram("runtime.delivery_latency_cycles", shards);
  // Always-on decomposition of the SLO histogram. Every delivered sub-batch
  // records all three components (zeros included) so the counts match the
  // delivery histogram and the per-batch identity queue + service + fence ==
  // delivery holds exactly on the sums (RecordDelivery clamps to enforce
  // it). The /metrics/delta SLO header breaks these out.
  telemetry_.latency_queue_cycles =
      registry_.GetHistogram("runtime.latency_queue_cycles", shards);
  telemetry_.latency_service_cycles =
      registry_.GetHistogram("runtime.latency_service_cycles", shards);
  telemetry_.latency_fence_cycles =
      registry_.GetHistogram("runtime.latency_fence_cycles", shards);
  telemetry_.ckpt_epochs = registry_.GetCounter("runtime.ckpt_epochs_total");
  telemetry_.ckpt_epoch_failures =
      registry_.GetCounter("runtime.ckpt_epoch_failures_total");
  telemetry_.failovers = registry_.GetCounter("runtime.failovers_total");
  telemetry_.failover_failures =
      registry_.GetCounter("runtime.failover_failures_total");
  // Always-on (like batch_cycles): the pause a checkpoint epoch imposes on
  // each worker is the headline robustness number, and epochs are rare.
  telemetry_.ckpt_pause_cycles =
      registry_.GetHistogram("runtime.ckpt_pause_cycles", shards);
  // Per completed failover: restoring the victim's slice of the snapshot.
  telemetry_.failover_resync_cycles =
      registry_.GetHistogram("runtime.failover_resync_cycles");
  // Ring levels are read from the rings at scrape time: the depth summed
  // over workers, the deepest any ring has been at a take, and the spread.
  registry_.RegisterGaugeFn("runtime.queue_depth", [this] {
    std::int64_t total = 0;
    for (std::size_t w = 0; w < config_.workers; ++w) {
      total += static_cast<std::int64_t>(rss_.QueueDepth(w));
    }
    return total;
  });
  registry_.RegisterGaugeFn("runtime.queue_depth_hwm", [this] {
    std::int64_t deepest = 0;
    for (std::size_t w = 0; w < config_.workers; ++w) {
      deepest = std::max(deepest, static_cast<std::int64_t>(rss_.QueueHwm(w)));
    }
    return deepest;
  });
  registry_.RegisterGaugeFn("runtime.queue_imbalance", [this] {
    return static_cast<std::int64_t>(rss_.QueueImbalance());
  });
  // Mempool occupancy is evaluated at scrape time against the pools'
  // always-on counters (no extra bookkeeping on the packet path).
  registry_.RegisterGaugeFn("runtime.mempool_in_use", [this] {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += static_cast<std::int64_t>(w->pool.Counters().in_use);
    }
    return total;
  });
  registry_.RegisterGaugeFn("runtime.mempool_alloc_failures", [this] {
    std::int64_t total = 0;
    for (const auto& w : workers_) {
      total += static_cast<std::int64_t>(w->pool.Counters().alloc_failures);
    }
    return total;
  });
  registry_.RegisterGaugeFn("runtime.stalled_workers", [this] {
    return static_cast<std::int64_t>(StalledWorkers());
  });
  for (const StageSpec& stage : spec) {
    stage_names_.push_back(stage.name);
    stage_policies_.push_back(stage.degrade);
  }
  // Resolve the schedule once against the spec; every worker replica gets
  // the same fusion-group shape.
  const std::vector<std::vector<std::size_t>> partition =
      ResolveSchedule(config_.schedule, spec.size());
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(w, config_));
    Worker& worker = *workers_.back();
    for (const StageSpec& stage : spec) {
      // Every worker replica gets its own domain per stage; the name
      // carries the shard so fault logs identify the replica.
      worker.isolated.AddStage(
          stage.name + "@w" + std::to_string(w),
          [make = stage.make, w] { return make(w); }, stage.degrade);
    }
    if (config_.schedule.fused()) {
      worker.isolated.ApplySchedule(partition);
    }
  }
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (started_ || shut_down_) {
    return;
  }
  started_ = true;
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = std::thread([this, worker] { WorkerMain(*worker); });
  }
  accepting_.store(true, std::memory_order_release);
  if (!config_.ops.unix_path.empty()) {
    obs::OpsServer::Hooks hooks;
    hooks.registry = &registry_;
    hooks.global_registry = &obs::Registry::Global();
    hooks.tracer = &obs::Tracer::Global();
    hooks.profiler = &obs::Profiler::Global();
    hooks.healthz = [this] { return HealthzJson(); };
    ops_server_ = std::make_unique<obs::OpsServer>(config_.ops, hooks);
    std::string error;
    if (!ops_server_->Start(&error)) {
      // An unobservable runtime beats a dead one: the service keeps going,
      // the operator sees why the socket is missing.
      std::fprintf(stderr, "runtime: ops server failed to start: %s\n",
                   error.c_str());
      ops_server_.reset();
    }
  }
}

void Runtime::Shutdown() {
  // Held across the whole teardown: a concurrent Start or second Shutdown
  // blocks until the transition completes, then observes the settled state.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  accepting_.store(false, std::memory_order_release);
  // The ops server goes first: it reads registry_ and per-worker state, so
  // it must be joined before anything it scrapes is torn down. A scrape in
  // flight finishes (Stop joins the serving thread); later connects are
  // refused once the socket is closed/unlinked.
  if (ops_server_) {
    ops_server_->Stop();
    ops_server_.reset();
  }
  if (!started_) {
    return;  // never ran; nothing to join — but Start is now refused too
  }
  // Closing the rings lets workers drain whatever is queued, then exit
  // (Await returns false only after close-and-drained); each worker has
  // recovered its own faults by then. A producer parked on a full ring is
  // woken by the close and refused (the steer counters record it).
  rss_.Shutdown();
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

std::size_t Runtime::StalledWorkers() const {
  const std::uint64_t now = util::CycleStart();
  std::size_t stalled = 0;
  for (const auto& w : workers_) {
    const std::uint64_t since = w->busy_since.load(std::memory_order_relaxed);
    stalled += since != 0 && now > since + kStallCycles ? 1 : 0;
  }
  return stalled;
}

std::string Runtime::HealthzJson() {
  const bool accepting = accepting_.load(std::memory_order_acquire);
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  for (const auto& w : workers_) {
    failed += w->failed_groups.load(std::memory_order_relaxed);
    quarantined += w->quarantined_groups.load(std::memory_order_relaxed);
  }
  const std::size_t stalled = StalledWorkers();
  // "ok" degrades to "degraded" while any stage replica is quarantined or
  // awaiting recovery or any worker is stuck in one sub-batch, and to
  // "stopping" once Shutdown has begun — the three states a liveness prober
  // actually branches on.
  std::string out = "{\"status\":\"";
  out += !accepting ? "stopping"
                    : (quarantined + failed + stalled > 0 ? "degraded" : "ok");
  out += "\",\"accepting\":";
  out += accepting ? "true" : "false";
  out += ",\"workers\":" + std::to_string(workers_.size());
  out += ",\"quarantined_stage_replicas\":" + std::to_string(quarantined);
  out += ",\"failed_stage_replicas\":" + std::to_string(failed);
  out += ",\"stalled_workers\":" + std::to_string(stalled);
  out += ",\"ckpt\":{\"epochs\":" +
         std::to_string(telemetry_.ckpt_epochs->Value());
  out += ",\"epoch_failures\":" +
         std::to_string(telemetry_.ckpt_epoch_failures->Value());
  out += ",\"failovers\":" + std::to_string(telemetry_.failovers->Value());
  out += ",\"failover_failures\":" +
         std::to_string(telemetry_.failover_failures->Value());
  out += "}}";
  return out;
}

void Runtime::WorkerMain(Worker& w) {
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer::Global().SetThreadName("worker" + std::to_string(w.index));
  }
  // Sampling-profiler identity: a /profile window attributes this thread's
  // CPU ticks to the phase scopes below. Unregistered again before exit —
  // a CPU-time timer must never outlive its thread.
  obs::Profiler::Global().RegisterThisThread("worker" +
                                             std::to_string(w.index));
  // Scope per-worker fault plans ("net.worker:<i>/<site>") to this thread.
  util::FaultInjector::SetThreadTag("net.worker:" + std::to_string(w.index));
  // The worker's spare batch: each Take swaps it into the ring slot it
  // empties, so the slots' item buffers circulate instead of being
  // reallocated.
  FlowBatch batch;
  // A worker with nothing to do polls its ring briefly, then parks until a
  // publish wakes it. The poll and the park are idle time, outside the "pop"
  // profiler phase; Await is false once the ring is closed and drained.
  while (rss_.Await(w.index)) {
    try {
      obs::ScopedProfilerPhase pop_phase(obs::ProfilerPhase::kPop);
      rss_.Take(w.index, batch);
    } catch (const util::PanicError&) {
      // An injected channel.recv fault fires before the slot is taken, so it
      // stays published: count the fault and take it next iteration.
      telemetry_.faults->Inc(w.index);
      LINSYS_TRACE_INSTANT_ARG("runtime.recv_fault", w.index);
      continue;
    }
    // The queue→service split point: everything before this stamp is queue
    // wait, everything after is service — except the wait for the pipeline
    // lock (the fence), which ProcessFlows measures. It also starts the
    // stall clock.
    const std::uint64_t pop = util::CycleStart();
    w.busy_since.store(pop, std::memory_order_relaxed);
    const std::uint64_t done = ProcessFlows(w, batch);
    w.busy_since.store(0, std::memory_order_relaxed);
    if (done > pop + kStallCycles) {
      // Counted once, when the sub-batch ends; while it lasted, the
      // runtime.stalled_workers gauge and /healthz showed it.
      telemetry_.stalls->Inc(w.index);
      LINSYS_TRACE_INSTANT_ARG("runtime.stall", w.index);
    }
  }
  obs::Profiler::Global().UnregisterThisThread();
}

// Delivery-side terminus of the SLO clock: records the always-on
// dispatch→delivery histogram plus its three-way additive decomposition.
// The split is exact by construction — clamps defend against cross-core TSC
// skew, and after them
//   queue + service + fence == delivery
// holds per batch on the nose (the histograms' exact `sum` fields therefore
// decompose perfectly; quantiles inherit only bucketization error).
std::uint64_t Runtime::RecordDelivery(Worker& w, const FlowBatch& flows,
                                      std::uint64_t fence) {
  const std::uint64_t end = util::CycleEnd();
  const std::uint64_t dispatch = flows.dispatch_tsc();
  const std::uint64_t delivery = end > dispatch ? end - dispatch : 0;
  telemetry_.delivery_latency_cycles->RecordWithExemplar(w.index, delivery,
                                                         flows.flow_id());
  std::uint64_t pop = w.busy_since.load(std::memory_order_relaxed);
  if (pop < dispatch) {
    pop = dispatch;
  }
  if (pop > end) {
    pop = end;
  }
  const std::uint64_t queue = pop - dispatch;
  std::uint64_t service = end - pop;
  fence = std::min(fence, service);
  service -= fence;
  telemetry_.latency_queue_cycles->Record(w.index, queue);
  telemetry_.latency_service_cycles->Record(w.index, service);
  telemetry_.latency_fence_cycles->Record(w.index, fence);
  return end;
}

std::uint64_t Runtime::ProcessFlows(Worker& w, const FlowBatch& flows) {
  LINSYS_TRACE_SPAN("runtime.batch");
  // Re-enter the flow's context on this worker: instrumentation below here
  // (stage crossings, fault capture, exemplars) tags what it records with
  // the dispatch-assigned id, and the batch span joins the flow's track.
  obs::ScopedFlowId flow_scope(flows.flow_id());
  // Profile attribution: the batch's whole dynamic extent is "execute"
  // (per-stage refinement happens inside Pipeline::Run); the flow scope above
  // names the batch in profile exemplars.
  obs::ScopedProfilerPhase exec_phase(obs::ProfilerPhase::kExecute);
  // Remembered as the exemplar on this worker's next checkpoint-pause
  // sample: the flow whose batch waits out the capture, or ran last.
  w.last_flow_id.store(flows.flow_id(), std::memory_order_relaxed);
  LINSYS_TRACE_ASYNC_SPAN("flow.batch", "flow", flows.flow_id());
  // Materialize frames from this worker's own pool, on this thread —
  // the whole buffer lifecycle (alloc, fault-unwind, drop) is shard-local.
  PacketBatch batch;
  std::size_t materialize_drops = 0;
  try {
    batch = PacketBatch(flows.size());
    for (const FlowWork& fw : flows) {
      PacketBuf pkt = PacketBuf::Alloc(&w.pool, kFrameLen);
      if (!pkt.has_value()) {
        ++materialize_drops;
        continue;
      }
      BuildFrame(pkt, fw.tuple);
      std::memcpy(pkt.payload(), &fw.seq, kFlowSeqBytes);
      batch.Push(std::move(pkt));
    }
  } catch (...) {
    // A panic outside any protection domain (e.g. an injected Mempool::Alloc
    // fault) or a failed allocation of the batch is contained at the shard
    // loop: the whole sub-batch is dropped — partially built frames go back
    // to this worker's pool as `batch` dies on this thread — and the worker
    // survives to take the next one.
    telemetry_.drops->Add(w.index, flows.size());
    telemetry_.faults->Inc(w.index);
    LINSYS_TRACE_INSTANT_ARG("runtime.materialize_fault", w.index);
    return util::CycleEnd();
  }
  telemetry_.drops->Add(w.index, materialize_drops);
  if (batch.empty()) {
    return util::CycleEnd();
  }
  const std::size_t n = batch.size();

  // A checkpoint capture, a failover restore or a Stats() fold may hold the
  // pipeline; this batch's wait for it is its fence. Timed only when another
  // thread holds the lock, so the uncontended path reads no extra clock.
  std::unique_lock<std::timed_mutex> lock(w.mu, std::try_to_lock);
  std::uint64_t fence = 0;
  if (!lock.owns_lock()) {
    const std::uint64_t f0 = util::CycleStart();
    lock.lock();
    fence = util::CycleEnd() - f0;
  }
  // Always-on latency sample: two cycle reads per *sub-batch*, amortized
  // over its packets — not on the per-call path Figure 2 measures.
  const std::uint64_t t0 = util::CycleStart();
  const std::uint64_t qdrop_before = w.isolated.QuarantineDropPkts();
  auto result = w.isolated.Run(std::move(batch));
  const std::uint64_t qdrop_delta =
      w.isolated.QuarantineDropPkts() - qdrop_before;
  const std::uint64_t batch_cycles = util::CycleEnd() - t0;
  if (!result.ok()) {
    // kFault: a fresh panic failed a group. kDomainFailed: a group whose
    // last recovery panicked. Either way the group is recovered now, before
    // this worker pops its next batch.
    RecoverInPlace(w, result.error() == sfi::CallError::kFault ? 1 : 0);
  }
  lock.unlock();
  telemetry_.batch_cycles->RecordWithExemplar(w.index, batch_cycles,
                                              flows.flow_id());
  if (!result.ok()) {
    // The in-flight batch was reclaimed during unwinding (still on this
    // thread, still this worker's pool).
    telemetry_.drops->Add(w.index, n);
    return util::CycleEnd();
  }
  PacketBatch out = std::move(result).value();
  // A quarantined kDrop stage returns Ok(empty): mirror its drop count
  // into the shard counter so conservation (packets + drops ==
  // materialized) still holds under degradation.
  if (qdrop_delta > 0) {
    telemetry_.drops->Add(w.index, qdrop_delta);
  }
  // Delivery: the SLO clock that started in Dispatch stops here. Always
  // on — queue wait and checkpoint pauses this batch lived through are
  // inside this number, which is exactly why it is the client-visible
  // quantity. Recorded before the packet counters move, so a reader that
  // sees every packet counted also sees every latency sample.
  const std::uint64_t done = RecordDelivery(w, flows, fence);
  telemetry_.packets->Add(w.index, out.size());
  telemetry_.batches->Inc(w.index);
  return done;
}

void Runtime::RecoverInPlace(Worker& w, std::size_t new_faults) {
  telemetry_.faults->Add(w.index, new_faults);
  if (w.isolated.FailedStages() > 0) {
    obs::ScopedProfilerPhase recover_phase(obs::ProfilerPhase::kRecover);
    // A recovery function that panics leaves its group Failed; the group is
    // retried the next time this worker meets it, until the crash-loop
    // budget quarantines it.
    telemetry_.recoveries->Add(
        w.index, w.isolated.RecoverFailedStages(kMaxRecoveryAttempts));
  }
  // Every fault path ends here, so these are current whenever w.mu is free.
  w.failed_groups.store(w.isolated.FailedStages(), std::memory_order_relaxed);
  w.quarantined_groups.store(w.isolated.QuarantinedStages(),
                             std::memory_order_relaxed);
}

bool Runtime::CheckpointLive() {
  LINSYS_ASSERT(config_.ckpt.enabled,
                "CheckpointLive needs RuntimeConfig::ckpt.enabled");
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!accepting_.load(std::memory_order_acquire)) {
    telemetry_.ckpt_epoch_failures->Inc();
    return false;
  }
  LINSYS_TRACE_SPAN("runtime.ckpt_epoch");
  const std::uint64_t t0 = util::CycleStart();
  // On the system clock: libstdc++ then waits in pthread_mutex_timedlock,
  // which ThreadSanitizer intercepts. Its steady-clock overload waits in
  // pthread_mutex_clocklock, which GCC 12's ThreadSanitizer does not see,
  // so it would report every capture's unlock as a stray one.
  const auto deadline = std::chrono::system_clock::now() + kCkptQuiesceTimeout;
  std::vector<WorkerCkptImage> images;
  images.reserve(workers_.size());
  for (const auto& w : workers_) {
    // Holding the pipeline lock puts the worker between two batches; its
    // popped batch waits (its fence) and then runs on the captured state.
    std::unique_lock<std::timed_mutex> lock(w->mu, deadline);
    if (!lock.owns_lock()) {
      // The worker stayed inside one batch past the deadline. Nothing is
      // installed; the captures taken so far die with `images`.
      telemetry_.ckpt_epoch_failures->Inc();
      LINSYS_TRACE_INSTANT("runtime.ckpt_epoch_abandoned");
      return false;
    }
    const std::uint64_t c0 = util::CycleStart();
    // A panic inside a SaveState fails its stage's group; it is recovered
    // here, before the worker's next batch.
    const std::size_t failed = w->isolated.FailedStages();
    std::vector<StageImage> stages = w->isolated.CheckpointStages();
    RecoverInPlace(*w, w->isolated.FailedStages() - failed);
    lock.unlock();
    // Always-on: the pause is the checkpoint's whole cost story, and epochs
    // are rare. The exemplar names the flow whose batch waited it out, or
    // the worker's last one.
    telemetry_.ckpt_pause_cycles->RecordWithExemplar(
        w->index, util::CycleEnd() - c0,
        w->last_flow_id.load(std::memory_order_relaxed));
    LINSYS_TRACE_INSTANT_ARG("runtime.ckpt_capture", w->index);
    images.push_back(WorkerCkptImage{w->index, std::move(stages)});
  }
  // Install: the collected images move into the snapshot slot, replacing
  // the previous epoch's.
  ckpt_state_ = RuntimeCkptImage{++ckpt_epoch_seq_, std::move(images)};
  telemetry_.ckpt_epochs->Inc();
  if (obs::MetricsArmed()) {
    ckpt::CkptObs::Get().runtime_epoch_cycles->Record(util::CycleEnd() - t0);
  }
  return true;
}

bool Runtime::FailoverWorker(std::size_t victim) {
  LINSYS_ASSERT(config_.ckpt.enabled,
                "FailoverWorker needs RuntimeConfig::ckpt.enabled");
  LINSYS_ASSERT(victim < workers_.size(), "victim out of range");
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!ckpt_state_) {
    telemetry_.failover_failures->Inc();  // nothing to fail over to yet
    return false;
  }
  LINSYS_TRACE_SPAN("runtime.failover");
  const std::uint64_t t0 = util::CycleStart();
  // Restore the victim's stage state from its slice of the snapshot (the
  // resync: the snapshot becomes the worker's live state). Its flows are
  // pinned to it, so its queued sub-batches stay queued and replay on top of
  // the restored state, as a batch popped after a checkpoint capture
  // replays on the captured one.
  Worker& v = *workers_[victim];
  const WorkerCkptImage& slice = ckpt_state_->workers[victim];
  LINSYS_ASSERT(slice.index == victim,
                "snapshot images are stored in worker order");
  {
    // A panic inside a LoadState fails its stage's group; it is recovered
    // (factory-fresh) before the victim's next batch.
    std::lock_guard<std::timed_mutex> lock(v.mu);
    const std::size_t failed = v.isolated.FailedStages();
    (void)v.isolated.RestoreStages(slice.stages);
    RecoverInPlace(v, v.isolated.FailedStages() - failed);
  }
  // Exemplar: the victim's most recent flow — the flow a scraper should
  // pull up to see what client work sat closest to the failover.
  telemetry_.failovers->IncWithExemplar(
      0, v.last_flow_id.load(std::memory_order_relaxed));
  telemetry_.failover_resync_cycles->Record(util::CycleEnd() - t0);
  LINSYS_TRACE_INSTANT_ARG("runtime.failover_done", victim);
  return true;
}

RuntimeCkptImage Runtime::CheckpointImageCopy() {
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  return ckpt_state_.value_or(RuntimeCkptImage{});
}

RuntimeStats Runtime::Stats() const {
  RuntimeStats s;
  s.dispatch_calls = rss_.batches_steered();
  s.sub_batches = rss_.sub_batches_steered();
  s.rejected_dispatches = telemetry_.rejected_dispatches->Value();
  s.steer_refused_sub_batches = rss_.refused_sub_batches();
  s.steer_dropped_items = rss_.dropped_items();
  s.worker_parks = telemetry_.worker_parks->Value();
  s.dispatch_waits = telemetry_.dispatch_waits->Value();
  s.ckpt_epochs = telemetry_.ckpt_epochs->Value();
  s.ckpt_epoch_failures = telemetry_.ckpt_epoch_failures->Value();
  s.failovers = telemetry_.failovers->Value();
  s.failover_failures = telemetry_.failover_failures->Value();
  s.ckpt_pause_cycles = telemetry_.ckpt_pause_cycles->Snapshot();
  s.failover_resync_cycles = telemetry_.failover_resync_cycles->Snapshot();
  // One consistent histogram snapshot for the whole stats call: buckets are
  // never torn (sum(buckets) == count) even while workers keep recording.
  s.batch_cycles = telemetry_.batch_cycles->Snapshot();
  s.delivery_latency_cycles = telemetry_.delivery_latency_cycles->Snapshot();
  s.latency_queue_cycles = telemetry_.latency_queue_cycles->Snapshot();
  s.latency_service_cycles = telemetry_.latency_service_cycles->Snapshot();
  s.latency_fence_cycles = telemetry_.latency_fence_cycles->Snapshot();
  s.stages.resize(stage_names_.size());
  for (std::size_t i = 0; i < stage_names_.size(); ++i) {
    s.stages[i].name = stage_names_[i];
    s.stages[i].policy = stage_policies_[i];
  }
  for (const auto& w : workers_) {
    WorkerTelemetry t;
    // Per-worker counters are that worker's shard cell in the registry;
    // acquire loads keep each value monotone across successive scrapes.
    t.batches = telemetry_.batches->ShardValue(w->index);
    t.packets = telemetry_.packets->ShardValue(w->index);
    t.drops = telemetry_.drops->ShardValue(w->index);
    t.faults = telemetry_.faults->ShardValue(w->index);
    t.recoveries = telemetry_.recoveries->ShardValue(w->index);
    t.stalls = telemetry_.stalls->ShardValue(w->index);
    t.parks = telemetry_.worker_parks->ShardValue(w->index);
    t.queue_hwm = rss_.QueueHwm(w->index);
    const Mempool::CountersView pool = w->pool.Counters();
    s.mempool_in_use += pool.in_use;
    s.mempool_in_use_hwm = std::max(s.mempool_in_use_hwm, pool.in_use_hwm);
    s.mempool_alloc_failures += pool.alloc_failures;
    {
      // Per-stage health lives behind the worker mutex (it is plain state
      // the worker's Run and recoveries write).
      std::lock_guard<std::timed_mutex> lock(w->mu);
      for (std::size_t i = 0; i < w->isolated.length(); ++i) {
        const StageHealth h = w->isolated.health(i);
        t.recovery_panics += h.recovery_panics;
        t.quarantined += h.quarantined ? 1 : 0;
        StageTelemetry& st = s.stages[i];
        st.quarantined_replicas += h.quarantined ? 1 : 0;
        st.faults += h.faults;
        st.recoveries += h.recoveries;
        st.recovery_panics += h.recovery_panics;
        st.quarantine_drop_pkts += h.quarantine_drop_pkts;
        st.passthrough_batches += h.passthrough_batches;
        for (double v : h.mttr_cycles.values()) {
          st.mttr_cycles.Add(v);
        }
      }
    }
    s.totals.batches += t.batches;
    s.totals.packets += t.packets;
    s.totals.drops += t.drops;
    s.totals.faults += t.faults;
    s.totals.recoveries += t.recoveries;
    s.totals.recovery_panics += t.recovery_panics;
    s.totals.stalls += t.stalls;
    s.totals.parks += t.parks;
    s.totals.quarantined += t.quarantined;
    s.totals.queue_hwm = std::max(s.totals.queue_hwm, t.queue_hwm);
    s.packets_per_worker.Add(static_cast<double>(t.packets));
    s.workers.push_back(t);
  }
  return s;
}

}  // namespace net
