// Connection-tracking Maglev: the affinity property (established flows pin
// to their backend across membership changes) that plain consistent hashing
// only approximates, plus flow-state export/import.
#include "src/net/operators/conntrack.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/net/mempool.h"
#include "src/net/pktgen.h"

namespace net {
namespace {

std::vector<std::string> Names(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("b" + std::to_string(i));
  }
  return names;
}

std::vector<std::uint32_t> Ips(int n) {
  std::vector<std::uint32_t> ips;
  for (int i = 0; i < n; ++i) {
    ips.push_back(0xc0a80100u + static_cast<std::uint32_t>(i));
  }
  return ips;
}

PacketBatch Traffic(Mempool& pool, std::uint64_t seed, std::size_t n) {
  PktSourceConfig cfg;
  cfg.flow_count = 128;
  cfg.seed = seed;
  PktSource src(&pool, cfg);
  PacketBatch batch(n);
  src.RxBurst(batch, n);
  return batch;
}

// Maps flow (by src ip/port) to assigned backend for each packet in batch.
std::map<std::pair<std::uint32_t, std::uint16_t>, std::uint32_t> Assignments(
    PacketBatch& batch) {
  std::map<std::pair<std::uint32_t, std::uint16_t>, std::uint32_t> out;
  for (PacketBuf& pkt : batch) {
    // dst was rewritten; flow identity survives in src ip/port.
    out[{NetToHost32(pkt.ipv4()->src_addr),
         NetToHost16(pkt.udp()->src_port)}] =
        NetToHost32(pkt.ipv4()->dst_addr);
  }
  return out;
}

TEST(ConnTrack, FirstPacketPopulatesFlowTable) {
  Mempool pool(512, 2048);
  MaglevConnTrack lb(Maglev(Names(4), 1009), Ips(4));
  PacketBatch out = lb.Process(Traffic(pool, 1, 256));
  EXPECT_GT(lb.flow_count(), 0u);
  EXPECT_EQ(lb.hits() + lb.misses(), 256u);
  EXPECT_EQ(lb.misses(), lb.flow_count());
}

TEST(ConnTrack, RepeatTrafficHitsTable) {
  Mempool pool(1024, 2048);
  MaglevConnTrack lb(Maglev(Names(4), 1009), Ips(4));
  (void)lb.Process(Traffic(pool, 1, 256));
  const std::uint64_t misses_after_warm = lb.misses();
  (void)lb.Process(Traffic(pool, 1, 256));  // same seed -> same flows
  EXPECT_EQ(lb.misses(), misses_after_warm)
      << "second pass must be all flow-table hits";
}

TEST(ConnTrack, AffinitySurvivesBackendRemoval) {
  Mempool pool(4096, 2048);
  MaglevConnTrack lb(Maglev(Names(5), 65537), Ips(5));

  PacketBatch first = lb.Process(Traffic(pool, 2, 512));
  auto before = Assignments(first);
  first.Clear();

  // Remove a backend that is NOT the pinned target of every flow; tracked
  // flows must keep their original backend, even those the hash table
  // would now send elsewhere.
  ASSERT_TRUE(lb.RemoveBackend("b4"));
  PacketBatch second = lb.Process(Traffic(pool, 2, 512));
  auto after = Assignments(second);

  ASSERT_EQ(before.size(), after.size());
  for (const auto& [flow, backend] : before) {
    EXPECT_EQ(after.at(flow), backend)
        << "tracked flow moved after membership change";
  }
}

TEST(ConnTrack, StatelessMaglevWouldMoveSomeFlows) {
  // Control experiment: without connection tracking, removal moves ~1/5 of
  // flows — proving the previous test is not vacuous.
  Maglev before(Names(5), 65537);
  Maglev after(Names(5), 65537);
  after.RemoveBackend("b4");
  std::size_t moved = 0;
  constexpr std::uint64_t kFlows = 4096;
  for (std::uint64_t h = 0; h < kFlows; ++h) {
    const std::uint64_t hash = h * 0x9e3779b97f4a7c15ULL;
    std::size_t a = before.Lookup(hash);
    std::size_t b = after.Lookup(hash);
    // Index shift for backends above the removed one.
    if (a == 4 || (a > 4 ? a - 1 : a) != b) {
      ++moved;
    }
  }
  EXPECT_GT(moved, kFlows / 10) << "removal must disrupt stateless flows";
}

TEST(ConnTrack, NewFlowsUseNewTable) {
  Mempool pool(4096, 2048);
  MaglevConnTrack lb(Maglev(Names(3), 1009), Ips(3));
  (void)lb.Process(Traffic(pool, 3, 128));
  lb.AddBackend("b3", Ips(4)[3]);
  // Fresh flows (different seed) should reach the new backend sometimes.
  PacketBatch fresh = lb.Process(Traffic(pool, 777, 512));
  std::set<std::uint32_t> seen;
  for (PacketBuf& pkt : fresh) {
    seen.insert(NetToHost32(pkt.ipv4()->dst_addr));
  }
  EXPECT_TRUE(seen.count(Ips(4)[3]))
      << "the added backend must attract new flows";
}

TEST(ConnTrack, OverflowDegradesGracefully) {
  Mempool pool(512, 2048);
  MaglevConnTrack lb(Maglev(Names(2), 1009), Ips(2), /*max_flows=*/8);
  PacketBatch out = lb.Process(Traffic(pool, 5, 256));
  EXPECT_EQ(out.size(), 256u) << "no drops on table overflow";
  EXPECT_LE(lb.flow_count(), 8u);
  EXPECT_GT(lb.table_overflow(), 0u);
}

TEST(ConnTrack, StateExportImportRoundTrip) {
  Mempool pool(1024, 2048);
  MaglevConnTrack primary(Maglev(Names(4), 1009), Ips(4));
  (void)primary.Process(Traffic(pool, 6, 256));

  MaglevConnTrack standby(Maglev(Names(4), 1009), Ips(4));
  standby.ImportState(primary.state());
  EXPECT_EQ(standby.flow_count(), primary.flow_count());

  // Failover: the standby serves existing flows from the table (all hits).
  (void)standby.Process(Traffic(pool, 6, 256));
  EXPECT_EQ(standby.misses(), 0u);
}

}  // namespace
}  // namespace net
