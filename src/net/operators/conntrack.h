// Connection-tracking Maglev (the full NSDI '16 design): a per-flow table
// in front of the consistent-hash lookup. Existing connections stay pinned
// to the backend that first served them even across backend-set changes
// (connection affinity); only new flows see the re-populated table. This is
// the stateful NF whose state makes checkpoint/rollback interesting.
#ifndef LINSYS_SRC_NET_OPERATORS_CONNTRACK_H_
#define LINSYS_SRC_NET_OPERATORS_CONNTRACK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ckpt/traits.h"
#include "src/net/headers.h"
#include "src/net/maglev.h"
#include "src/net/pipeline.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace net {

class MaglevConnTrack : public Operator, public CkptStage {
 public:
  MaglevConnTrack(Maglev table, std::vector<std::uint32_t> backend_ips,
                  std::size_t max_flows = 1 << 20)
      : table_(std::move(table)),
        backend_ips_(std::move(backend_ips)),
        max_flows_(max_flows) {
    LINSYS_ASSERT(backend_ips_.size() == table_.backend_count(),
                  "one rewrite IP per backend");
  }

  PacketBatch Process(PacketBatch batch) override {
    LINSYS_FAULT_POINT("op.conntrack");
    for (PacketBuf& pkt : batch) {
      const FiveTuple t = pkt.Tuple();
      const std::uint64_t key = t.Hash();
      std::uint32_t backend_ip = 0;
      auto it = state_.flows.find(key);
      if (it != state_.flows.end()) {
        backend_ip = it->second;  // affinity: pinned at first packet
        ++hits_;
      } else {
        const std::size_t backend = table_.Lookup(key);
        backend_ip = backend_ips_[backend];
        if (state_.flows.size() < max_flows_) {
          state_.flows.emplace(key, backend_ip);
        } else {
          ++table_overflow_;  // degrade to stateless lookups, don't drop
        }
        ++misses_;
      }

      Ipv4Hdr* ip = pkt.ipv4();
      const std::uint32_t old_dst = ip->dst_addr;
      const std::uint32_t new_dst = HostToNet32(backend_ip);
      ip->dst_addr = new_dst;
      ip->header_checksum =
          ChecksumFixup32(ip->header_checksum, old_dst, new_dst);
    }
    return batch;
  }

  std::string_view name() const override { return "maglev-conntrack"; }

  // Backend-set changes re-populate the hash table; tracked flows are
  // untouched (the affinity property tested in net_conntrack_test).
  void AddBackend(std::string backend_name, std::uint32_t rewrite_ip) {
    table_.AddBackend(std::move(backend_name));
    backend_ips_.push_back(rewrite_ip);
  }
  bool RemoveBackend(const std::string& backend_name) {
    for (std::size_t i = 0; i < table_.backend_count(); ++i) {
      if (table_.BackendName(i) == backend_name) {
        if (!table_.RemoveBackend(backend_name)) {
          return false;
        }
        backend_ips_.erase(backend_ips_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // Flow state for checkpoint/replication consumers. Live-runtime
  // checkpointing serializes only the per-flow affinity table, in place:
  // the Maglev table itself is config (rebuilt from the stage factory),
  // while the pinned flows are the state a failover must not lose.
  struct State {
    std::unordered_map<std::uint64_t, std::uint32_t> flows;
    LINSYS_CHECKPOINT_FIELDS(flows)
  };
  const State& state() const { return state_; }
  void ImportState(State state) { state_ = std::move(state); }

  void SaveState(ckpt::Writer& w) const override {
    ckpt::Traits<State>::Save(state_, w);
  }
  void LoadState(ckpt::Reader& r) override {
    state_ = ckpt::Traits<State>::Load(r);
  }

  std::size_t flow_count() const { return state_.flows.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t table_overflow() const { return table_overflow_; }
  Maglev& table() { return table_; }

 private:
  Maglev table_;
  std::vector<std::uint32_t> backend_ips_;
  std::size_t max_flows_;
  State state_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t table_overflow_ = 0;
};

}  // namespace net

#endif  // LINSYS_SRC_NET_OPERATORS_CONNTRACK_H_
