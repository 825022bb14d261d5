// Cross-module integration: checkpointing live network-function state — the
// "rollback-recovery for middleboxes" consumer the paper cites (§5) — plus
// the container traits (pair/map/unordered_map) it relies on, the
// allocation count of a stage's capture, the largest allocation a corrupt
// element count can drive, and seeded decode fuzzing of real checkpoint
// bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/trie.h"
#include "src/net/maglev.h"
#include "src/net/mempool.h"
#include "src/net/operators/conntrack.h"
#include "src/net/operators/nat.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/util/panic.h"
#include "src/util/rng.h"

// Heap allocations made by threads that set g_count_allocs, and the largest
// single request among them: this binary replaces the global operator new so
// a stage's capture can be held to the Writer's own growth, and a corrupt
// decode to the size of its input.
namespace {
thread_local bool g_count_allocs = false;
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n > g_largest_alloc.load(std::memory_order_relaxed)) {
      g_largest_alloc.store(n, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
// Kept out of line: inlined into a caller, GCC pairs the free() with the
// new-expression and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ckpt {
namespace {

TEST(ContainerTraits, PairRoundTrip) {
  auto p = std::make_pair(std::string("key"), 42);
  auto restored = Restore<decltype(p)>(Checkpoint(p));
  EXPECT_EQ(restored, p);
}

TEST(ContainerTraits, MapRoundTrip) {
  std::map<int, std::string> m{{1, "one"}, {2, "two"}, {-5, "neg"}};
  EXPECT_EQ((Restore<std::map<int, std::string>>(Checkpoint(m))), m);
  std::map<int, std::string> empty;
  EXPECT_EQ((Restore<std::map<int, std::string>>(Checkpoint(empty))), empty);
}

TEST(ContainerTraits, UnorderedMapRoundTrip) {
  std::unordered_map<std::uint64_t, std::uint16_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    m[i * 0x9e3779b9] = static_cast<std::uint16_t>(i);
  }
  auto restored =
      Restore<std::unordered_map<std::uint64_t, std::uint16_t>>(
          Checkpoint(m));
  EXPECT_EQ(restored, m);
}

TEST(ContainerTraits, NestedContainers) {
  std::map<std::string, std::vector<int>> m{{"a", {1, 2}}, {"b", {}}};
  EXPECT_EQ((Restore<std::map<std::string, std::vector<int>>>(
                Checkpoint(m))),
            m);
}

// The NAT state struct with the derive macro — defined here to show a
// downstream user adding checkpointing to a foreign type's exported state.
struct NatSnapshot {
  net::NatRewrite::State state;

  LINSYS_CHECKPOINT_FIELDS(state.public_ip, state.next_port,
                           state.flow_ports, state.translated)
};

net::PacketBatch MakeTraffic(net::Mempool& pool, std::uint64_t seed,
                             std::size_t n) {
  net::PktSourceConfig cfg;
  cfg.flow_count = 64;
  cfg.seed = seed;
  net::PktSource src(&pool, cfg);
  net::PacketBatch batch(n);
  src.RxBurst(batch, n);
  return batch;
}

TEST(NatRollback, CheckpointRestorePreservesMappings) {
  net::Mempool pool(512, 2048);
  net::NatRewrite nat(0x05050505);

  // Phase 1: traffic establishes flow->port mappings.
  net::PacketBatch out = nat.Process(MakeTraffic(pool, 1, 200));
  const std::size_t flows_before = nat.flow_count();
  ASSERT_GT(flows_before, 10u);

  // Record the port each flow got, keyed by pre-NAT source address.
  std::map<std::uint32_t, std::uint16_t> golden;
  for (net::PacketBuf& pkt : out) {
    golden.emplace(net::NetToHost32(pkt.ipv4()->src_addr),
                   net::NetToHost16(pkt.udp()->src_port));
  }
  out.Clear();

  // Checkpoint, then fail over to a blank replacement NAT.
  Snapshot snap = Checkpoint(NatSnapshot{nat.state()});
  net::NatRewrite replacement(0);
  replacement.ImportState(Restore<NatSnapshot>(snap).state);
  EXPECT_EQ(replacement.flow_count(), flows_before);

  // The same flows through the restored NAT must keep their ports
  // (connection affinity across failover -- the point of middlebox
  // rollback). Same seed -> same flow set; compare replicas positionally.
  net::NatRewrite reference(0x05050505);
  reference.ImportState(Restore<NatSnapshot>(snap).state);
  net::PacketBatch a = replacement.Process(MakeTraffic(pool, 1, 100));
  net::PacketBatch b = reference.Process(MakeTraffic(pool, 1, 100));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(net::NetToHost16(a[i].udp()->src_port),
              net::NetToHost16(b[i].udp()->src_port))
        << "restored replicas must assign identical ports";
  }
  EXPECT_EQ(replacement.flow_count(), flows_before)
      << "no new flows: every packet matched a checkpointed mapping";
}

TEST(NatRollback, NewFlowsAfterRestoreGetFreshPorts) {
  net::Mempool pool(512, 2048);
  net::NatRewrite nat(0x05050505);
  (void)nat.Process(MakeTraffic(pool, 3, 100));

  Snapshot snap = Checkpoint(NatSnapshot{nat.state()});
  net::NatRewrite restored(0);
  restored.ImportState(Restore<NatSnapshot>(snap).state);

  const std::size_t before = restored.flow_count();
  (void)restored.Process(MakeTraffic(pool, 999, 100));  // different flows
  EXPECT_GT(restored.flow_count(), before)
      << "port allocator state (next_port) must survive the snapshot";
}

// Heap allocations `stage.SaveState` makes into a fresh Writer.
std::uint64_t SaveAllocs(const net::CkptStage& stage) {
  Writer w(DedupMode::kLinearMark, NextEpoch());
  const std::uint64_t before = g_allocs.load();
  g_count_allocs = true;
  stage.SaveState(w);
  g_count_allocs = false;
  EXPECT_GT(w.Finish().size_bytes(), 0u);
  return g_allocs.load() - before;
}

// A capture serializes the operator's live table in place: only the
// Writer's buffer grows (by doubling), where a copy of the table first
// would allocate once per flow.
TEST(StageCapture, SaveStateAllocatesOnlyTheWritersGrowth) {
  constexpr std::uint64_t kFlows = 4096;
  net::NatRewrite::State nat_state;
  net::MaglevConnTrack::State ct_state;
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    nat_state.flow_ports.emplace(i * 0x9e3779b97f4a7c15ULL,
                                 static_cast<std::uint16_t>(20000 + i));
    ct_state.flows.emplace(i * 0x9e3779b97f4a7c15ULL,
                           static_cast<std::uint32_t>(0x0a000000 + i % 4));
  }
  net::NatRewrite nat(0x05050505);
  nat.ImportState(std::move(nat_state));
  net::MaglevConnTrack ct(net::Maglev({"b0", "b1", "b2", "b3"}, 1009),
                          {0x0a000000, 0x0a000001, 0x0a000002, 0x0a000003});
  ct.ImportState(std::move(ct_state));
  ASSERT_EQ(nat.flow_count(), kFlows);
  ASSERT_EQ(ct.flow_count(), kFlows);
  EXPECT_LT(SaveAllocs(nat), 64u);
  EXPECT_LT(SaveAllocs(ct), 64u);
}

// ---- Seeded decode fuzzing -------------------------------------------------
//
// Real snapshots — a shared-rule trie in each dedup mode, a NAT State and a
// two-worker runtime image — are corrupted by seed (flipped bytes, a
// truncation, or a length/id field overwritten with a large value) and
// decoded. Decoding must return or panic with util::PanicError: no crash,
// no other exception (std::length_error, std::bad_alloc, bad_any_cast).

RuleTrie SharedRuleTrie() {
  util::Rng rng(5);
  RuleTrie trie;
  for (std::uint64_t r = 0; r < 8; ++r) {
    FwRule rule;
    rule.id = r;
    rule.dst_port_lo = static_cast<std::uint16_t>(rng.Below(1000));
    RulePtr shared = RulePtr::Make(rule);
    for (int a = 0; a < 4; ++a) {
      trie.Insert(rng.NextU32() & 0xffff0000u, 16, shared);
    }
  }
  return trie;
}

net::NatRewrite::State NatState() {
  net::NatRewrite::State state{0x05050505, 20064, {}, 300};
  for (std::uint16_t i = 0; i < 64; ++i) {
    state.flow_ports.emplace(0x9e3779b97f4a7c15ULL * (i + 1),
                             static_cast<std::uint16_t>(20000 + i));
  }
  return state;
}

// A live checkpoint of a two-worker NAT runtime that has seen traffic.
net::RuntimeCkptImage RuntimeImage() {
  net::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.ckpt.enabled = true;
  std::vector<net::StageSpec> spec;
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<net::NatRewrite>(0x0a000001);
                  }});
  net::Runtime rt(cfg, spec);
  rt.Start();
  net::FlowSampler sampler(32, 0.0, 17);
  net::FlowFeeder feeder(&sampler);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(rt.Dispatch(feeder.Next(16)));
  }
  EXPECT_TRUE(rt.CheckpointLive());
  net::RuntimeCkptImage image = rt.CheckpointImageCopy();
  rt.Shutdown();
  return image;
}

// Offsets of 8-byte fields holding a small nonzero value: in these images
// those are the element counts, lengths, copy-ids and indices (flow keys
// are large).
std::vector<std::size_t> SmallFields(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + i, sizeof(v));
    if (v != 0 && v < (1u << 20)) {
      at.push_back(i);
    }
  }
  return at;
}

Snapshot Corrupt(const Snapshot& clean, util::Rng& rng) {
  Snapshot snap = clean;
  std::vector<std::uint8_t>& b = snap.bytes;
  switch (rng.Below(3)) {
    case 0: {  // flip 1-4 bytes
      const std::uint64_t flips = 1 + rng.Below(4);
      for (std::uint64_t k = 0; k < flips; ++k) {
        b[rng.Below(b.size())] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
      }
      break;
    }
    case 1:  // truncate
      b.resize(rng.Below(b.size()));
      break;
    case 2: {  // a length or id field becomes large
      static constexpr std::uint64_t kLarge[] = {
          1ULL << 20, 1ULL << 32, 1ULL << 61, ~0ULL, ~0ULL / 3};
      const std::vector<std::size_t> fields = SmallFields(b);
      if (!fields.empty()) {
        const std::uint64_t v = kLarge[rng.Below(std::size(kLarge))];
        std::memcpy(b.data() + fields[rng.Below(fields.size())], &v,
                    sizeof(v));
      }
      break;
    }
  }
  return snap;
}

// Decodes `snap` as a T, then runs `inner` on the result; true when both
// returned, false when either panicked. Any other exception fails the test.
template <typename T, typename Inner>
bool DecodesOrPanics(const Snapshot& snap, const char* what, Inner inner) {
  try {
    inner(Restore<T>(snap));
    return true;
  } catch (const util::PanicError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as " << e.what();
    return false;
  }
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, CorruptSnapshotsReturnOrPanic) {
  static const RuleTrie trie = SharedRuleTrie();
  static const Snapshot tries[] = {Checkpoint(trie, DedupMode::kLinearMark),
                                   Checkpoint(trie, DedupMode::kAddressSet),
                                   Checkpoint(trie, DedupMode::kNone)};
  static const Snapshot nat = Checkpoint(NatState());
  static const Snapshot image = Checkpoint(RuntimeImage());
  const auto ignore = [](auto&&) {};
  // The image's stage bytes are NAT States: decode them too, so a corrupt
  // image reaches the inner decoder as failover's restore would.
  const auto stages = [](const net::RuntimeCkptImage& img) {
    for (const net::WorkerCkptImage& w : img.workers) {
      for (const net::StageImage& st : w.stages) {
        Reader r(st.bytes);
        (void)Traits<net::NatRewrite::State>::Load(r);
      }
    }
  };
  // The clean inputs decode.
  for (const Snapshot& t : tries) {
    ASSERT_TRUE((DecodesOrPanics<RuleTrie>(t, "clean trie", ignore)));
  }
  ASSERT_TRUE(
      (DecodesOrPanics<net::NatRewrite::State>(nat, "clean nat", ignore)));
  ASSERT_TRUE((DecodesOrPanics<net::RuntimeCkptImage>(image, "clean image",
                                                      stages)));

  util::Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    for (const Snapshot& t : tries) {
      (void)DecodesOrPanics<RuleTrie>(Corrupt(t, rng), "trie", ignore);
    }
    (void)DecodesOrPanics<net::NatRewrite::State>(Corrupt(nat, rng), "nat",
                                                  ignore);
    (void)DecodesOrPanics<net::RuntimeCkptImage>(Corrupt(image, rng), "image",
                                                 stages);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

// Decodes `snap` as a T, which must panic; returns the largest single
// allocation the decode requested.
template <typename T>
std::size_t LargestAllocOfFailedDecode(const Snapshot& snap) {
  g_largest_alloc.store(0);
  g_count_allocs = true;
  bool panicked = false;
  try {
    (void)Restore<T>(snap);
  } catch (const util::PanicError&) {
    panicked = true;
  }
  g_count_allocs = false;
  EXPECT_TRUE(panicked) << "corrupt count decoded";
  return g_largest_alloc.load();
}

// A corrupt element count sizes no allocation past the decoder's input:
// each reserve it drives is capped by the bytes left to read, counted in
// elements. Capping by bytes alone would let a runtime image's stage count
// reserve sizeof(StageImage) = 64 bytes per input byte.
TEST(DecodeBounds, CorruptCountsAllocateNoMoreThanTheInput) {
  net::RuntimeCkptImage image{1, {}};
  image.workers.push_back(net::WorkerCkptImage{0, {}});
  image.workers[0].stages.push_back(
      net::StageImage{"nat@w0", 1, 0, std::vector<std::uint8_t>(700000, 0x5a)});
  const Snapshot clean_image = Checkpoint(image);
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    table.emplace(i * 0x9e3779b97f4a7c15ULL, i);
  }
  const Snapshot clean_table = Checkpoint(table);

  // The image's stage count follows its epoch, worker count and worker
  // index; the table's entry count leads it.
  constexpr std::size_t kStageCountAt = 3 * sizeof(std::uint64_t);
  std::uint64_t stage_count = 0;
  std::memcpy(&stage_count, clean_image.bytes.data() + kStageCountAt,
              sizeof(stage_count));
  ASSERT_EQ(stage_count, 1u);
  for (const std::uint64_t count :
       {std::uint64_t{2}, std::uint64_t{1} << 20, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    Snapshot corrupt = clean_image;
    std::memcpy(corrupt.bytes.data() + kStageCountAt, &count, sizeof(count));
    EXPECT_LE(LargestAllocOfFailedDecode<net::RuntimeCkptImage>(corrupt),
              corrupt.size_bytes());
    corrupt = clean_table;
    std::memcpy(corrupt.bytes.data(), &count, sizeof(count));
    EXPECT_LE((LargestAllocOfFailedDecode<
                  std::unordered_map<std::uint64_t, std::uint64_t>>(corrupt)),
              corrupt.size_bytes());
  }
}

}  // namespace
}  // namespace ckpt
