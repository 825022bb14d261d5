// Source NAT: rewrites the source IP to a public address and the source port
// to a stable per-flow allocation, with incremental checksum fix-ups. The
// flow table makes this the one *stateful* NF in the set, which matters for
// the checkpointing example (its state is worth snapshotting).
#ifndef LINSYS_SRC_NET_OPERATORS_NAT_H_
#define LINSYS_SRC_NET_OPERATORS_NAT_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/ckpt/traits.h"
#include "src/net/headers.h"
#include "src/net/pipeline.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {

class NatRewrite : public Operator, public CkptStage {
 public:
  // Checkpointable NF state, for checkpoint/rollback systems (the paper
  // cites rollback-recovery for middleboxes as a motivating consumer of
  // automatic snapshotting; FTMB-style systems ship exactly this kind of
  // struct). Process works on it in place, so a checkpoint serializes the
  // live table without copying it first.
  struct State {
    std::uint32_t public_ip = 0;
    std::uint16_t next_port = 0;
    std::unordered_map<std::uint64_t, std::uint16_t> flow_ports;
    std::uint64_t translated = 0;
    LINSYS_CHECKPOINT_FIELDS(public_ip, next_port, flow_ports, translated)
  };

  explicit NatRewrite(std::uint32_t public_ip, std::uint16_t port_base = 20000)
      : state_{public_ip, port_base, {}, 0} {}

  PacketBatch Process(PacketBatch batch) override {
    LINSYS_FAULT_POINT("op.nat");
    for (PacketBuf& pkt : batch) {
      const FiveTuple t = pkt.Tuple();
      const std::uint64_t key = t.Hash();
      auto [it, inserted] =
          state_.flow_ports.try_emplace(key, state_.next_port);
      if (inserted) {
        LINSYS_ASSERT(state_.next_port != 0xffff, "NAT port space exhausted");
        ++state_.next_port;
      }

      Ipv4Hdr* ip = pkt.ipv4();
      UdpHdr* udp = pkt.udp();
      const std::uint32_t old_src = ip->src_addr;
      const std::uint32_t new_src = HostToNet32(state_.public_ip);
      ip->src_addr = new_src;
      ip->header_checksum =
          ChecksumFixup32(ip->header_checksum, old_src, new_src);
      udp->src_port = HostToNet16(it->second);
      ++state_.translated;
    }
    return batch;
  }

  std::string_view name() const override { return "nat"; }

  std::uint64_t translated() const { return state_.translated; }
  std::size_t flow_count() const { return state_.flow_ports.size(); }

  const State& state() const { return state_; }
  void ImportState(State state) { state_ = std::move(state); }

  // Full NAT state round-trips through a runtime checkpoint: port
  // allocations must survive failover or translated flows would be re-mapped
  // to fresh ports mid-connection.
  void SaveState(ckpt::Writer& w) const override {
    ckpt::Traits<State>::Save(state_, w);
  }
  void LoadState(ckpt::Reader& r) override {
    state_ = ckpt::Traits<State>::Load(r);
  }

 private:
  State state_;
};

}  // namespace net

#endif  // LINSYS_SRC_NET_OPERATORS_NAT_H_
