// Benchmark-owned pipeline stages: `tx`, the delivery point appended to
// every pipeline, and the timing wrapper the traced run puts around each
// stage. Both are plain net::Operator implementations; the runtime sees
// nothing but operators.
#ifndef NFBENCH_STAGES_H_
#define NFBENCH_STAGES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "nfbench_lib.h"
#include "src/net/pipeline.h"
#include "src/net/runtime.h"
#include "workload.h"

namespace nfbench {

// First burst of each measured phase, published by the generator before it
// dispatches that burst. Workers classify a sub-batch by its burst.
struct PhaseMarks {
  std::atomic<std::uint64_t> sat_begin{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> open_begin{std::numeric_limits<std::uint64_t>::max()};

  enum Phase { kWarm = 0, kSat = 1, kOpen = 2 };
  Phase Of(std::uint64_t burst) const {
    if (burst >= open_begin.load(std::memory_order_relaxed)) {
      return kOpen;
    }
    return burst >= sat_begin.load(std::memory_order_relaxed) ? kSat : kWarm;
  }
};

// Saturation throughput is counted in windows of this length, so a stall of
// the VM moves one window's rate, not the whole run's.
inline constexpr std::int64_t kWindowNs = 100'000'000;
inline constexpr std::size_t kMaxWindows = 1200;

// One worker's delivery record, written only by that worker's tx stage.
struct alignas(64) TxLane {
  explicit TxLane(std::size_t open_capacity) : sat_window(kMaxWindows, 0) {
    // Written through now, so these pages are resident before the runtime
    // is built and do not count as the runtime's memory (peak_rss_mb).
    open.resize(open_capacity);
    open.clear();
  }

  void Reset() {
    sat_pkts = 0;
    sat_last_ns = 0;
    std::fill(sat_window.begin(), sat_window.end(), 0);
    open.clear();
    open_overflow = 0;
    delivered.store(0, std::memory_order_relaxed);
  }

  std::uint64_t sat_pkts = 0;
  std::int64_t sat_last_ns = 0;
  std::vector<std::uint64_t> sat_window;  // packets per window from sat_t0
  std::vector<Delivery> open;   // one record per open-loop sub-batch
  std::uint64_t open_overflow = 0;
  // Published after every sub-batch so the generator can wait for a drain.
  std::atomic<std::uint64_t> delivered{0};
};

// Everything the tx stages write. Built once per pass and reset for each
// fresh runtime, so its memory is in place before any runtime exists.
struct TxShared {
  TxShared(const FlowExpect* e, std::size_t workers, std::size_t open_capacity)
      : oracle(e, workers) {
    for (std::size_t w = 0; w < workers; ++w) {
      lanes.push_back(std::make_unique<TxLane>(open_capacity));
    }
  }
  // Call only while no runtime is running.
  void Reset() {
    oracle.Reset();
    marks.sat_begin.store(std::numeric_limits<std::uint64_t>::max(), std::memory_order_relaxed);
    marks.open_begin.store(std::numeric_limits<std::uint64_t>::max(), std::memory_order_relaxed);
    sat_t0.store(0, std::memory_order_relaxed);
    for (auto& l : lanes) {
      l->Reset();
    }
  }
  std::uint64_t Delivered() const {
    std::uint64_t n = 0;
    for (const auto& l : lanes) {
      n += l->delivered.load(std::memory_order_acquire);
    }
    return n;
  }

  Oracle oracle;
  PhaseMarks marks;
  std::atomic<std::int64_t> sat_t0{0};  // first saturation dispatch
  std::vector<std::unique_ptr<TxLane>> lanes;
};

// The last stage of every pipeline: stamps the delivery time once per
// sub-batch (all its packets leave together), reads each frame's sequence
// stamp back and hands the frame to the output oracle.
class TxStage : public net::Operator {
 public:
  TxStage(TxShared* shared, std::size_t worker)
      : shared_(shared), worker_(worker), lane_(shared->lanes[worker].get()) {}

  net::PacketBatch Process(net::PacketBatch batch) override {
    const std::int64_t now = NowNs();
    if (batch.empty()) {
      return batch;
    }
    const std::uint64_t burst = net::ReadFlowSeq(batch[0]) / kBurst;
    for (net::PacketBuf& pkt : batch) {
      const net::Ipv4Hdr* ip = pkt.ipv4();
      FrameObs f;
      f.seq = net::ReadFlowSeq(pkt);
      f.src_ip = net::NetToHost32(ip->src_addr);
      f.src_port = net::NetToHost16(pkt.udp()->src_port);
      f.dst_ip = net::NetToHost32(ip->dst_addr);
      f.ttl = ip->ttl;
      f.checksum_ok = net::InternetChecksum(ip, sizeof(net::Ipv4Hdr)) == 0;
      shared_->oracle.Observe(worker_, f);
    }
    const auto n = static_cast<std::uint32_t>(batch.size());
    switch (shared_->marks.Of(burst)) {
      case PhaseMarks::kOpen:
        if (lane_->open.size() < lane_->open.capacity()) {
          lane_->open.push_back(Delivery{burst, n, now});
        } else {
          ++lane_->open_overflow;
        }
        break;
      case PhaseMarks::kSat: {
        lane_->sat_pkts += n;
        lane_->sat_last_ns = std::max(lane_->sat_last_ns, now);
        const std::int64_t since = now - shared_->sat_t0.load(std::memory_order_relaxed);
        const auto window = static_cast<std::size_t>(std::max<std::int64_t>(since, 0) / kWindowNs);
        if (window < kMaxWindows) {
          lane_->sat_window[window] += n;
        }
        break;
      }
      case PhaseMarks::kWarm:
        break;
    }
    lane_->delivered.store(shared_->oracle.delivered(worker_), std::memory_order_release);
    return batch;
  }

  std::string_view name() const override { return "tx"; }

 private:
  TxShared* shared_;
  std::size_t worker_;
  TxLane* lane_;
};

// ---------------------------------------------------------------------------
// Traced run: spans kept in per-thread buffers sized up front, written out
// (folded into metrics) after the run.

// One stage call inside one sub-batch. `req` is the dispatch burst — the
// request id that ties worker spans back to the generator's Dispatch span.
struct StageSpan {
  std::uint64_t req = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t pkts = 0;
  std::uint16_t stage = 0;
};

// SaveState/LoadState of one stage.
struct CkptSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint16_t stage = 0;
};

// Spans of every burst with req % kSpanSample == 0 are kept; the per-stage
// sums below count every saturation sub-batch.
inline constexpr std::uint64_t kSpanSample = 16;

struct StageSums {
  std::uint64_t calls = 0;
  std::uint64_t pkts = 0;
  std::int64_t ns = 0;
};

struct alignas(64) TraceLane {
  TraceLane(std::size_t stages, std::size_t span_capacity) : sat_sums(stages) {
    spans.reserve(span_capacity);
    saves.reserve(4096);
  }

  std::vector<StageSums> sat_sums;  // per stage
  std::vector<StageSpan> spans;
  std::uint64_t span_overflow = 0;
  std::vector<CkptSpan> saves;   // on the worker thread, during captures
  std::uint64_t cur_req = 0;     // burst of the sub-batch in flight
};

struct TraceShared {
  TraceShared(std::size_t workers, std::size_t stages, std::size_t span_capacity) {
    for (std::size_t w = 0; w < workers; ++w) {
      lanes.push_back(std::make_unique<TraceLane>(stages, span_capacity));
    }
  }
  const PhaseMarks* marks = nullptr;
  std::vector<std::unique_ptr<TraceLane>> lanes;
  // LoadState runs on the thread that calls FailoverWorker.
  std::mutex load_mu;
  std::vector<CkptSpan> loads;
};

// Times the wrapped stage's Process. The inner operator runs unchanged.
class TimedOp : public net::Operator {
 public:
  TimedOp(std::unique_ptr<net::Operator> inner, std::uint16_t stage,
          TraceShared* trace, std::size_t worker)
      : inner_(std::move(inner)),
        stage_(stage),
        trace_(trace),
        lane_(trace->lanes[worker].get()) {}

  net::PacketBatch Process(net::PacketBatch batch) override {
    const std::int64_t t0 = NowNs();
    const auto pkts = static_cast<std::uint32_t>(batch.size());
    if (stage_ == 0 || pkts > 0) {
      // A sub-batch holds one burst; a stage the firewall emptied keeps the
      // burst the first stage saw.
      lane_->cur_req = pkts > 0 ? net::ReadFlowSeq(batch[0]) / kBurst : 0;
    }
    net::PacketBatch out = inner_->Process(std::move(batch));
    const std::int64_t t1 = NowNs();
    const std::uint64_t req = lane_->cur_req;
    const PhaseMarks::Phase phase = trace_->marks->Of(req);
    if (phase == PhaseMarks::kSat) {
      StageSums& s = lane_->sat_sums[stage_];
      ++s.calls;
      s.pkts += pkts;
      s.ns += t1 - t0;
    }
    if (phase != PhaseMarks::kWarm && req % kSpanSample == 0) {
      if (lane_->spans.size() < lane_->spans.capacity()) {
        lane_->spans.push_back(StageSpan{req, t0, t1, pkts, stage_});
      } else {
        ++lane_->span_overflow;
      }
    }
    return out;
  }

  std::string_view name() const override { return inner_->name(); }

 protected:
  std::unique_ptr<net::Operator> inner_;
  std::uint16_t stage_;
  TraceShared* trace_;
  TraceLane* lane_;
};

// The wrapper for a stage that has checkpoint state: it forwards CkptStage,
// so the runtime's dynamic_cast capture finds it, and times both calls.
class TimedCkptOp final : public TimedOp, public net::CkptStage {
 public:
  using TimedOp::TimedOp;

  void SaveState(ckpt::Writer& w) const override {
    const std::int64_t t0 = NowNs();
    dynamic_cast<const net::CkptStage&>(*inner_).SaveState(w);
    lane_->saves.push_back(CkptSpan{t0, NowNs(), stage_});
  }
  void LoadState(ckpt::Reader& r) override {
    const std::int64_t t0 = NowNs();
    dynamic_cast<net::CkptStage&>(*inner_).LoadState(r);
    const std::int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(trace_->load_mu);
    trace_->loads.push_back(CkptSpan{t0, t1, stage_});
  }
};

inline std::unique_ptr<net::Operator> Timed(std::unique_ptr<net::Operator> op,
                                            std::uint16_t stage,
                                            TraceShared* trace,
                                            std::size_t worker) {
  if (dynamic_cast<net::CkptStage*>(op.get()) != nullptr) {
    return std::make_unique<TimedCkptOp>(std::move(op), stage, trace, worker);
  }
  return std::make_unique<TimedOp>(std::move(op), stage, trace, worker);
}

}  // namespace nfbench

#endif  // NFBENCH_STAGES_H_
