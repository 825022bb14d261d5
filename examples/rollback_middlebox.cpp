// Rollback-recovery for middleboxes (§5 cites Sherry et al., SIGCOMM '15):
// a stateful load balancer whose flow table is checkpointed periodically;
// after a crash the state is restored on a replacement instance and — the
// property that matters — established connections keep their backends.
//
// This composes three subsystems: net (conntrack Maglev over the DPDK sim),
// ckpt (snapshots of the exported flow state), and sfi (the NF runs inside
// a protection domain whose recovery function performs the restore).
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/net/mempool.h"
#include "src/net/operators/conntrack.h"
#include "src/net/pipeline.h"
#include "src/net/pktgen.h"
#include "src/sfi/manager.h"
#include "src/util/panic.h"

namespace {

// The checkpointable wrapper around the NF's exported state.
struct FlowSnapshot {
  std::unordered_map<std::uint64_t, std::uint32_t> flows;
  LINSYS_CHECKPOINT_FIELDS(flows)
};

net::MaglevConnTrack MakeLb() {
  std::vector<std::string> names;
  std::vector<std::uint32_t> ips;
  for (int i = 0; i < 6; ++i) {
    names.push_back("backend-" + std::to_string(i));
    ips.push_back(0xc0a80100u + static_cast<std::uint32_t>(i));
  }
  return net::MaglevConnTrack(net::Maglev(names, 65537), ips);
}

}  // namespace

int main() {
  net::Mempool pool(4096, 2048);
  net::PktSourceConfig cfg;
  cfg.flow_count = 512;
  cfg.seed = 7;
  net::PktSource source(&pool, cfg);

  sfi::DomainManager manager;
  sfi::Domain& domain = manager.Create("lb");
  sfi::RRef<net::MaglevConnTrack> lb = domain.Export(MakeLb());

  // The supervisor keeps the latest snapshot; the domain's recovery
  // function restores it into a fresh NF instance.
  ckpt::Snapshot latest = ckpt::Checkpoint(FlowSnapshot{});
  domain.SetRecovery([&lb, &latest](sfi::Domain& self) {
    net::MaglevConnTrack fresh = MakeLb();
    fresh.ImportState(net::MaglevConnTrack::State{
        ckpt::Restore<FlowSnapshot>(latest).flows});
    lb = self.Export(std::move(fresh));
  });

  auto assignments = [&]() {
    std::map<std::uint32_t, std::uint32_t> out;  // src_ip -> backend
    net::PacketBatch batch(256);
    net::PktSourceConfig probe_cfg = cfg;  // same flows, fresh generator
    net::Mempool probe_pool(512, 2048);
    net::PktSource probe(&probe_pool, probe_cfg);
    probe.RxBurst(batch, 256);
    auto result = lb.Call(
        [b = std::move(batch)](net::MaglevConnTrack& nf) mutable {
          net::PacketBatch processed = nf.Process(std::move(b));
          std::map<std::uint32_t, std::uint32_t> seen;
          for (net::PacketBuf& pkt : processed) {
            seen[net::NetToHost32(pkt.ipv4()->src_addr)] =
                net::NetToHost32(pkt.ipv4()->dst_addr);
          }
          return seen;
        },
        "process");
    return result.ValueOr({});
  };

  // Phase 1: serve traffic, then checkpoint the flow table.
  std::map<std::uint32_t, std::uint32_t> before = assignments();
  auto exported = lb.Call([](net::MaglevConnTrack& nf) {
    return FlowSnapshot{nf.state().flows};
  });
  latest = ckpt::Checkpoint(exported.value());
  std::printf("checkpointed %zu flows (%zu bytes)\n",
              exported.value().flows.size(), latest.size_bytes());

  // Phase 2: crash the NF.
  auto crash = lb.Call([](net::MaglevConnTrack&) -> int {
    util::Panic(util::PanicKind::kAssertFailed, "NF crashed (injected)");
  });
  std::printf("crash contained: error='%s', domain=%s\n",
              std::string(sfi::CallErrorName(crash.error())).c_str(),
              std::string(sfi::DomainStateName(domain.state())).c_str());

  // Phase 3: recover (restores the snapshot) and re-probe the same flows.
  manager.RecoverAllFailed();
  std::map<std::uint32_t, std::uint32_t> after = assignments();

  std::size_t moved = 0;
  for (const auto& [src, backend] : before) {
    auto it = after.find(src);
    if (it == after.end() || it->second != backend) {
      ++moved;
    }
  }
  std::printf("connection affinity after failover: %zu/%zu flows kept "
              "their backend (%zu moved)\n",
              before.size() - moved, before.size(), moved);
  std::printf("pool leak check: %zu buffers out (expect 0)\n",
              pool.in_use());
  return moved == 0 && !before.empty() ? 0 : 1;
}
