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

// Exponential backoff between recovery passes while a recovery keeps
// failing (its fn panicking): the first wait, the factor each failed pass
// multiplies it by, and its cap.
constexpr std::chrono::microseconds kRecoveryBackoffInitial{50};
constexpr int kRecoveryBackoffFactor = 2;
constexpr std::chrono::microseconds kRecoveryBackoffMax{2000};
// Backup replicas behind the runtime snapshot (ckpt::ReplicatedState).
constexpr std::size_t kCkptReplicas = 1;
// CheckpointLive gives every worker this long to reach a batch boundary and
// deposit its capture before the epoch is abandoned (counted in
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
    if (ckpt_restore_mismatches > 0) {
      s += " restore_mismatches=" + std::to_string(ckpt_restore_mismatches);
    }
    s += "\n  ckpt_pause_cycles: " + ckpt_pause_cycles.Summary();
  }
  if (unquarantines > 0 || requarantines > 0) {
    s += " unquarantines=" + std::to_string(unquarantines);
    s += " requarantines=" + std::to_string(requarantines);
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
    s += " failfast=" + std::to_string(st.failfast_batches);
    if (st.probes > 0) {
      s += " probes=" + std::to_string(st.probes);
      s += " unquarantines=" + std::to_string(st.unquarantines);
      s += " requarantines=" + std::to_string(st.requarantines);
    }
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
  telemetry_.queue_depth = registry_.GetGauge("runtime.queue_depth", shards);
  telemetry_.queue_hwm = registry_.GetGauge("runtime.queue_depth_hwm", shards);
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
  telemetry_.ckpt_restore_mismatches =
      registry_.GetCounter("runtime.ckpt_restore_mismatches_total");
  telemetry_.unquarantines =
      registry_.GetCounter("runtime.unquarantines_total", shards);
  telemetry_.requarantines =
      registry_.GetCounter("runtime.requarantines_total", shards);
  // Always-on (like batch_cycles): the pause a checkpoint epoch imposes on
  // each worker is the headline robustness number, and epochs are rare.
  telemetry_.ckpt_pause_cycles =
      registry_.GetHistogram("runtime.ckpt_pause_cycles", shards);
  telemetry_.failover_resync_cycles =
      registry_.GetHistogram("runtime.failover_resync_cycles");
  // Imbalance is computed from live ring depths at scrape time.
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
    if (config_.supervision.probation_cooldown_batches > 0) {
      worker.isolated.SetProbation(config_.supervision.probation_cooldown_batches);
      // Probe outcomes land in per-worker counter shards; the per-stage
      // split comes from StageHealth in Stats().
      worker.isolated.SetProbeObserver([this, w](bool ok) {
        if (ok) {
          telemetry_.unquarantines->Inc(w);
        } else {
          telemetry_.requarantines->Inc(w);
        }
      });
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
  supervisor_ = std::thread([this] { SupervisorMain(); });
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = std::thread([this, worker] { WorkerMain(*worker); });
  }
  accepting_.store(true, std::memory_order_release);
  if (config_.ops.enabled) {
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
  // (Await returns false only after close-and-drained). The supervisor keeps
  // running until after the join so in-flight faults are still recovered
  // during the drain. A producer parked on a full ring is woken by the
  // close and refused (the steer counters record it).
  rss_.Shutdown();
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) {
    supervisor_.join();
  }
}

std::string Runtime::HealthzJson() {
  const bool accepting = accepting_.load(std::memory_order_acquire);
  std::size_t quarantined = 0;
  std::size_t failed = 0;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    failed += w->isolated.FailedStages();
    quarantined += w->isolated.QuarantinedStages();
  }
  // "ok" degrades to "degraded" while any stage replica is quarantined or
  // awaiting recovery, and to "stopping" once Shutdown has begun — the
  // three states a liveness prober actually branches on.
  std::string out = "{\"status\":\"";
  out += !accepting ? "stopping" : (quarantined + failed > 0 ? "degraded" : "ok");
  out += "\",\"accepting\":";
  out += accepting ? "true" : "false";
  out += ",\"workers\":" + std::to_string(workers_.size());
  out += ",\"quarantined_stage_replicas\":" + std::to_string(quarantined);
  out += ",\"failed_stage_replicas\":" + std::to_string(failed);
  out += ",\"ckpt\":{\"gen\":" +
         std::to_string(ckpt_gen_.load(std::memory_order_acquire));
  out += ",\"epochs\":" + std::to_string(telemetry_.ckpt_epochs->Value());
  out += ",\"epoch_failures\":" +
         std::to_string(telemetry_.ckpt_epoch_failures->Value());
  out += ",\"failovers\":" + std::to_string(telemetry_.failovers->Value());
  out += ",\"failover_failures\":" +
         std::to_string(telemetry_.failover_failures->Value());
  out += "}}";
  return out;
}

void Runtime::NotifyFault() {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    fault_pending_ = true;
  }
  sup_cv_.notify_one();
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
  // publish wakes it. The checkpoint driver wakes an idle worker with an
  // empty slot (a nudge) so it reaches a batch boundary.
  while (true) {
    const std::size_t depth = rss_.QueueDepth(w.index);
    telemetry_.queue_depth->Set(w.index, static_cast<std::int64_t>(depth));
    telemetry_.queue_hwm->SetMax(w.index, static_cast<std::int64_t>(depth));
    w.busy.store(false, std::memory_order_release);
    // The poll and the park are idle time, outside the "pop" profiler phase.
    if (!rss_.Await(w.index)) {
      break;  // closed and drained
    }
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
    // wait, everything after is service — except the fence pause charged
    // just below.
    batch.set_pop_tsc(util::CycleStart());
    // Batch boundary: service an open checkpoint epoch before processing
    // the popped batch (which then simply replays on top of the snapshot).
    // The measured capture pause stalled *this* batch's delivery, so it is
    // charged to its fence component rather than smeared into service.
    batch.set_fence_cycles(MaybeCaptureCheckpoint(w));
    if (batch.empty()) {
      // Checkpoint nudge (real sub-batches are never empty: Dispatch only
      // publishes non-empty per-worker shares). Not counted as a batch.
      continue;
    }
    w.busy.store(true, std::memory_order_release);
    ProcessFlows(w, batch);
    w.heartbeat.fetch_add(1, std::memory_order_release);
  }
  w.busy.store(false, std::memory_order_release);
  telemetry_.queue_depth->Set(w.index, 0);
  obs::Profiler::Global().UnregisterThisThread();
}

// Delivery-side terminus of the SLO clock: records the always-on
// dispatch→delivery histogram plus its three-way additive decomposition.
// The split is exact by construction — clamps defend against a missing pop
// stamp or cross-core TSC skew, and after them
//   queue + service + fence == delivery
// holds per batch on the nose (the histograms' exact `sum` fields therefore
// decompose perfectly; quantiles inherit only bucketization error).
void Runtime::RecordDelivery(Worker& w, const FlowBatch& flows) {
  if (flows.dispatch_tsc() == 0) {
    return;  // unstamped (test-built batch): nothing to attribute
  }
  const std::uint64_t end = util::CycleEnd();
  const std::uint64_t dispatch = flows.dispatch_tsc();
  const std::uint64_t delivery = end > dispatch ? end - dispatch : 0;
  telemetry_.delivery_latency_cycles->RecordWithExemplar(w.index, delivery,
                                                         flows.flow_id());
  std::uint64_t pop = flows.pop_tsc();
  if (pop < dispatch) {
    pop = dispatch;  // also covers pop == 0 (batch delivered without Take)
  }
  if (pop > end) {
    pop = end;
  }
  const std::uint64_t queue = pop - dispatch;
  std::uint64_t service = end - pop;
  const std::uint64_t fence = std::min(flows.fence_cycles(), service);
  service -= fence;
  telemetry_.latency_queue_cycles->Record(w.index, queue);
  telemetry_.latency_service_cycles->Record(w.index, service);
  telemetry_.latency_fence_cycles->Record(w.index, fence);
}

void Runtime::ProcessFlows(Worker& w, const FlowBatch& flows) {
  LINSYS_TRACE_SPAN("runtime.batch");
  // Re-enter the flow's context on this worker: instrumentation below here
  // (stage crossings, fault capture, exemplars) tags what it records with
  // the dispatch-assigned id, and the batch span joins the flow's track.
  obs::ScopedFlowId flow_scope(flows.flow_id());
  // Profile attribution: the batch's whole dynamic extent is "execute"
  // (per-stage refinement happens inside Pipeline::Run), tagged with the
  // flow id so profile exemplars correlate with trace tracks.
  obs::ScopedProfilerPhase exec_phase(obs::ProfilerPhase::kExecute);
  obs::Profiler::SetFlow(flows.flow_id());
  // Remembered as the exemplar on this worker's next checkpoint-pause
  // sample: the flow whose batch sat behind the capture.
  w.last_flow_id.store(flows.flow_id(), std::memory_order_relaxed);
  LINSYS_TRACE_ASYNC_SPAN("flow.batch", "flow", flows.flow_id());
  // Materialize frames from this worker's own pool, on this thread —
  // the whole buffer lifecycle (alloc, fault-unwind, drop) is shard-local.
  PacketBatch batch(flows.size());
  std::size_t materialize_drops = 0;
  try {
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
  } catch (const util::PanicError&) {
    // A panic outside any protection domain (e.g. an injected Mempool::Alloc
    // fault) is contained at the shard loop: the whole sub-batch is dropped
    // — partially built frames go back to this worker's pool as `batch`
    // unwinds on this thread — and the worker survives to take the next one.
    telemetry_.drops->Add(w.index, flows.size());
    telemetry_.faults->Inc(w.index);
    LINSYS_TRACE_INSTANT_ARG("runtime.materialize_fault", w.index);
    return;
  }
  telemetry_.drops->Add(w.index, materialize_drops);
  if (batch.empty()) {
    return;
  }
  const std::size_t n = batch.size();

  // Always-on latency sample: two cycle reads per *sub-batch*, amortized
  // over its packets — not on the per-call path Figure 2 measures.
  const std::uint64_t t0 = util::CycleStart();
  std::unique_lock<std::mutex> lock(w.mu);
  const std::uint64_t qdrop_before = w.isolated.QuarantineDropPkts();
  auto result = w.isolated.Run(std::move(batch));
  const std::uint64_t qdrop_delta =
      w.isolated.QuarantineDropPkts() - qdrop_before;
  lock.unlock();
  const std::uint64_t batch_cycles = util::CycleEnd() - t0;
  telemetry_.batch_cycles->RecordWithExemplar(w.index, batch_cycles,
                                              flows.flow_id());
  if (!result.ok()) {
    // The in-flight batch was reclaimed during unwinding (still on this
    // thread, still this worker's pool). kFault = a fresh panic, worth
    // waking the supervisor; kDomainFailed = still waiting on recovery;
    // kQuarantined = a fail-fast stage, nothing left to recover.
    telemetry_.drops->Add(w.index, n);
    if (result.error() == sfi::CallError::kFault) {
      telemetry_.faults->Inc(w.index);
      NotifyFault();
    }
    return;
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
  RecordDelivery(w, flows);
  telemetry_.packets->Add(w.index, out.size());
  telemetry_.batches->Inc(w.index);
}

bool Runtime::RecoveryPass() {
  LINSYS_TRACE_SPAN("runtime.recovery_pass");
  obs::ScopedProfilerPhase recover_phase(obs::ProfilerPhase::kRecover);
  bool still_failed = false;
  for (auto& w : workers_) {
    // The worker's pipeline mutex serializes recovery against Run, so
    // rrefs are never replaced under a caller's feet.
    std::lock_guard<std::mutex> wlock(w->mu);
    const std::size_t recovered = w->isolated.RecoverFailedStages(
        config_.supervision.max_recovery_attempts);
    if (recovered > 0) {
      telemetry_.recoveries->Add(w->index, recovered);
    }
    if (w->isolated.FailedStages() > 0) {
      still_failed = true;  // a recovery fn panicked — re-queue for backoff
    }
  }
  return still_failed;
}

void Runtime::SupervisorMain() {
  if (obs::Tracer::ArmedFast()) {
    obs::Tracer::Global().SetThreadName("supervisor");
  }
  obs::Profiler::Global().RegisterThisThread("supervisor");
  util::FaultInjector::SetThreadTag("net.supervisor");
  using Clock = std::chrono::steady_clock;
  const SupervisionConfig& sup = config_.supervision;
  const auto period = std::chrono::milliseconds(sup.watchdog_period_ms);

  std::vector<std::uint64_t> last_beat(workers_.size(), 0);
  std::vector<bool> flagged(workers_.size(), false);
  std::chrono::microseconds backoff = kRecoveryBackoffInitial;
  Clock::time_point next_retry = Clock::now();
  bool recover_requested = false;

  std::unique_lock<std::mutex> lock(sup_mu_);
  while (true) {
    // Sleep until the watchdog period elapses, a retry comes due, or a
    // worker reports a fresh fault.
    Clock::duration wait = period;
    if (recover_requested) {
      const auto now = Clock::now();
      wait = next_retry > now
                 ? std::min<Clock::duration>(period, next_retry - now)
                 : Clock::duration::zero();
    }
    sup_cv_.wait_for(lock, wait,
                     [this] { return sup_stop_ || fault_pending_; });
    if (sup_stop_) {
      break;
    }
    if (fault_pending_) {
      fault_pending_ = false;
      recover_requested = true;
    }
    lock.unlock();

    // Recovery sweep, gated by the backoff clock. While a recovery function
    // keeps panicking, passes run at kRecoveryBackoffInitial * 2^k (capped);
    // the moment a pass leaves no stage Failed the backoff resets, so a
    // healthy fault hits recovery at full speed. Crash-loops whose recovery
    // *succeeds* but immediately re-faults are bounded separately, by the
    // per-stage attempts_since_success quarantine budget.
    if (recover_requested && Clock::now() >= next_retry) {
      const bool still_failed = RecoveryPass();
      if (still_failed) {
        next_retry = Clock::now() + backoff;
        backoff = std::min(backoff * kRecoveryBackoffFactor,
                           kRecoveryBackoffMax);
        // recover_requested stays true: retry when the backoff expires.
      } else {
        recover_requested = false;
        backoff = kRecoveryBackoffInitial;
        next_retry = Clock::now();
      }
    }

    // Watchdog: a worker that is busy on the same sub-batch across an
    // entire period (heartbeat unmoved) is stuck — count the transition
    // once per incident and surface it in telemetry.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const std::uint64_t beat = w.heartbeat.load(std::memory_order_acquire);
      const bool busy = w.busy.load(std::memory_order_acquire);
      if (busy && beat == last_beat[i]) {
        if (!flagged[i]) {
          telemetry_.stalls->Inc(i);
          LINSYS_TRACE_INSTANT_ARG("runtime.watchdog_stall", i);
          flagged[i] = true;
        }
      } else {
        flagged[i] = false;
      }
      last_beat[i] = beat;
    }

    // Quarantine probation rides the supervisor cadence: a quarantined
    // stage whose cool-down has elapsed gets a fresh domain and one probe
    // batch; the probe's outcome (in Pipeline::Run) settles it.
    if (sup.probation_cooldown_batches > 0) {
      for (auto& w : workers_) {
        std::lock_guard<std::mutex> wlock(w->mu);
        (void)w->isolated.ProbeQuarantined();
      }
    }

    lock.lock();
  }
  obs::Profiler::Global().UnregisterThisThread();
}

// Worker-side half of a checkpoint epoch, called at every batch boundary
// (right after a pop, before processing). One acquire load + compare on the
// no-epoch fast path; when the driver has advanced ckpt_gen_, capture this
// worker's stage state (the measured quiesce pause) and deposit it. The
// caller charges the returned pause to the batch the capture delayed.
std::uint64_t Runtime::MaybeCaptureCheckpoint(Worker& w) {
  if (!config_.ckpt.enabled) {
    return 0;
  }
  const std::uint64_t gen = ckpt_gen_.load(std::memory_order_acquire);
  if (gen == w.ckpt_seen_gen) {
    return 0;
  }
  // One capture per epoch even if the driver abandons it: the deposit
  // carries the gen, so a stale image can never pollute a later epoch.
  w.ckpt_seen_gen = gen;
  obs::ScopedProfilerPhase ckpt_phase(obs::ProfilerPhase::kCkptCapture);
  const std::uint64_t t0 = util::CycleStart();
  WorkerCkptImage img;
  img.index = w.index;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    img.stages = w.isolated.CheckpointStages();
  }
  const std::uint64_t pause = util::CycleEnd() - t0;
  // Always-on: the pause is the checkpoint's whole cost story, and epochs
  // are rare. The exemplar names the flow whose batch sat behind it.
  telemetry_.ckpt_pause_cycles->RecordWithExemplar(
      w.index, pause, w.last_flow_id.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_pending_.emplace_back(gen, std::move(img));
  }
  ckpt_cv_.notify_all();
  LINSYS_TRACE_INSTANT_ARG("runtime.ckpt_capture", w.index);
  return pause;
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
  const std::uint64_t gen =
      ckpt_gen_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const auto deadline = std::chrono::steady_clock::now() + kCkptQuiesceTimeout;
  std::vector<bool> seen(workers_.size(), false);
  std::vector<WorkerCkptImage> images;
  bool complete = false;
  {
    std::unique_lock<std::mutex> lock(ckpt_mu_);
    while (true) {
      for (auto it = ckpt_pending_.begin(); it != ckpt_pending_.end();) {
        if (it->first == gen && !seen[it->second.index]) {
          seen[it->second.index] = true;
          images.push_back(std::move(it->second));
          it = ckpt_pending_.erase(it);
        } else if (it->first <= gen) {
          // Straggler from an abandoned epoch (or a duplicate): discard.
          it = ckpt_pending_.erase(it);
        } else {
          ++it;
        }
      }
      if (images.size() == workers_.size()) {
        complete = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      // Nudge workers that have not deposited and whose ring is empty:
      // those are polling or parked in Await and will never reach a batch
      // boundary on their own (a publish to an empty ring cannot wait; a
      // busy worker reaches its boundary naturally). Re-checked every
      // iteration — a ring that drains right after this scan gets the next
      // nudge.
      lock.unlock();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (!seen[i] && rss_.QueueDepth(i) == 0) {
          (void)rss_.Nudge(i);
        }
      }
      lock.lock();
      ckpt_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  if (!complete) {
    // Quiesce timed out (some worker never reached a boundary in time).
    // Nothing is installed; deposits for this gen are swept by the next
    // epoch's harvest.
    telemetry_.ckpt_epoch_failures->Inc();
    LINSYS_TRACE_INSTANT("runtime.ckpt_epoch_abandoned");
    return false;
  }
  std::sort(images.begin(), images.end(),
            [](const WorkerCkptImage& a, const WorkerCkptImage& b) {
              return a.index < b.index;
            });
  RuntimeCkptImage image;
  image.epoch = ckpt_epoch_seq_ + 1;
  image.workers = std::move(images);
  try {
    if (!ckpt_state_) {
      ckpt_state_ = std::make_unique<ckpt::ReplicatedState<RuntimeCkptImage>>(
          std::move(image), kCkptReplicas);
    } else {
      ckpt_state_->Apply(
          [&image](RuntimeCkptImage& s) { s = std::move(image); });
    }
  } catch (const util::PanicError&) {
    // An injected ckpt.replica_restore fault mid-replication. The primary
    // may already hold the new image but a replica is stale — exactly the
    // state Failover's promote-then-resync is defined over, so nothing to
    // unwind; the epoch just doesn't count as installed.
    telemetry_.ckpt_epoch_failures->Inc();
    return false;
  }
  ++ckpt_epoch_seq_;
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
  LINSYS_ASSERT(workers_.size() > 1, "failover needs a surviving worker");
  std::lock_guard<std::mutex> driver(ckpt_driver_mu_);
  if (!ckpt_state_) {
    telemetry_.failover_failures->Inc();  // nothing to fail over to yet
    return false;
  }
  LINSYS_TRACE_SPAN("runtime.failover");
  const std::uint64_t t0 = util::CycleStart();
  try {
    // Promote replica 0 and resync the rest from it. The injectable
    // ckpt.failover_resync point fires inside; a panic there is contained
    // here — ReplicatedState holds valid snapshots on both sides of the
    // swap, so the failover is simply refused and retryable.
    ckpt_state_->Failover(0);
  } catch (const util::PanicError&) {
    telemetry_.failover_failures->Inc();
    LINSYS_TRACE_INSTANT_ARG("runtime.failover_fault", victim);
    return false;
  }
  // Restore the victim's stage state from its slice of the promoted image
  // (the "resync" half: the replica becomes the worker's live state). Its
  // flows are pinned to it, so its queued sub-batches stay queued and replay
  // on top of the restored state, as a batch popped after a checkpoint
  // capture replays on the captured one.
  Worker& v = *workers_[victim];
  for (const WorkerCkptImage& wi : ckpt_state_->primary().workers) {
    if (wi.index == victim) {
      std::lock_guard<std::mutex> lock(v.mu);
      const std::uint64_t mismatches_before = v.isolated.restore_mismatches();
      (void)v.isolated.RestoreStages(wi.stages);
      // Name-keyed restore refuses (and counts) images whose stage the
      // pipeline does not have — surface that as a runtime counter so a
      // schedule/shape drift between checkpoint and restore is visible.
      const std::uint64_t refused =
          v.isolated.restore_mismatches() - mismatches_before;
      if (refused > 0) {
        telemetry_.ckpt_restore_mismatches->Add(refused);
      }
      break;
    }
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
  if (!ckpt_state_) {
    return RuntimeCkptImage{};
  }
  return ckpt_state_->primary();
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
  s.ckpt_restore_mismatches = telemetry_.ckpt_restore_mismatches->Value();
  s.unquarantines = telemetry_.unquarantines->Value();
  s.requarantines = telemetry_.requarantines->Value();
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
    t.queue_hwm = static_cast<std::size_t>(
        telemetry_.queue_hwm->ShardValue(w->index));
    const Mempool::CountersView pool = w->pool.Counters();
    s.mempool_in_use += pool.in_use;
    s.mempool_in_use_hwm = std::max(s.mempool_in_use_hwm, pool.in_use_hwm);
    s.mempool_alloc_failures += pool.alloc_failures;
    {
      // Per-stage health lives behind the worker mutex (it is plain state
      // shared by Run and the supervisor).
      std::lock_guard<std::mutex> lock(w->mu);
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
        st.failfast_batches += h.failfast_batches;
        st.probes += h.probes;
        st.unquarantines += h.unquarantines;
        st.requarantines += h.requarantines;
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
