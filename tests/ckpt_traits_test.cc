// Inductive checkpoint derivation: round-trip identity for every supported
// shape, and the Rc/Arc alias semantics in all three dedup modes.
#include "src/ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/lin/arc.h"
#include "src/lin/mutex.h"
#include "src/lin/own.h"
#include "src/lin/rc.h"
#include "src/util/panic.h"

namespace ckpt {
namespace {

template <Checkpointable T>
T RoundTrip(const T& value, DedupMode mode = DedupMode::kLinearMark) {
  return Restore<T>(Checkpoint(value, mode));
}

TEST(Traits, Scalars) {
  EXPECT_EQ(RoundTrip(42), 42);
  EXPECT_EQ(RoundTrip(-7L), -7L);
  EXPECT_EQ(RoundTrip(true), true);
  EXPECT_EQ(RoundTrip(3.25), 3.25);
  EXPECT_EQ(RoundTrip<std::uint8_t>(255), 255);
}

TEST(Traits, Strings) {
  EXPECT_EQ(RoundTrip(std::string("")), "");
  EXPECT_EQ(RoundTrip(std::string("hello world")), "hello world");
  std::string binary("\x00\x01\xff", 3);
  EXPECT_EQ(RoundTrip(binary), binary);
}

TEST(Traits, Vectors) {
  EXPECT_EQ(RoundTrip(std::vector<int>{}), std::vector<int>{});
  EXPECT_EQ(RoundTrip(std::vector<int>{1, 2, 3}),
            (std::vector<int>{1, 2, 3}));
  std::vector<std::vector<std::string>> nested{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(RoundTrip(nested), nested);
}

TEST(Traits, UniquePtr) {
  auto restored = RoundTrip(std::make_unique<int>(9));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(*restored, 9);
  EXPECT_EQ(RoundTrip(std::unique_ptr<int>()), nullptr);
}

TEST(Traits, LinOwn) {
  auto restored = RoundTrip(lin::Make<std::string>("owned"));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored.Borrow(), "owned");
  lin::Own<std::string> empty;
  EXPECT_FALSE(RoundTrip(std::move(empty)).has_value());
}

struct Inner {
  int a = 0;
  std::string name;
  LINSYS_CHECKPOINT_FIELDS(a, name)
  bool operator==(const Inner&) const = default;
};

struct Outer {
  Inner inner;
  std::vector<int> values;
  bool flag = false;
  LINSYS_CHECKPOINT_FIELDS(inner, values, flag)
  bool operator==(const Outer&) const = default;
};

TEST(Traits, DerivedStructsNest) {
  Outer o{Inner{5, "x"}, {1, 2}, true};
  EXPECT_EQ(RoundTrip(o), o);
}

TEST(Traits, MutexLocksAndRoundTrips) {
  lin::Mutex<std::vector<int>> m(std::vector<int>{1, 2, 3});
  lin::Mutex<std::vector<int>> restored =
      RoundTrip<lin::Mutex<std::vector<int>>>(std::move(m));
  EXPECT_EQ(*restored.Lock(), (std::vector<int>{1, 2, 3}));
}

// ---- Rc alias semantics -----------------------------------------------------

struct Pair {
  lin::Rc<std::string> left;
  lin::Rc<std::string> right;
  LINSYS_CHECKPOINT_FIELDS(left, right)
};

TEST(RcCkpt, AliasedPairSerializedOnce) {
  auto shared = lin::Rc<std::string>::Make("shared-rule");
  Pair p{shared, shared};

  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kLinearMark, &stats);
  EXPECT_EQ(stats.payload_copies, 1u) << "one payload for two aliases";
  EXPECT_EQ(stats.back_refs, 1u);

  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "shared-rule");
  EXPECT_TRUE(restored.left.SameObject(restored.right))
      << "sharing must survive the round trip";
  EXPECT_FALSE(restored.left.SameObject(p.left))
      << "but the restored object is a fresh copy";
}

TEST(RcCkpt, AddressSetModeSameResultDifferentMechanism) {
  auto shared = lin::Rc<std::string>::Make("rule");
  Pair p{shared, shared};
  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kAddressSet, &stats);
  EXPECT_EQ(stats.payload_copies, 1u);
  EXPECT_EQ(stats.back_refs, 1u);
  Pair restored = Restore<Pair>(snap);
  EXPECT_TRUE(restored.left.SameObject(restored.right));
}

TEST(RcCkpt, NaiveModeDuplicatesAndLosesSharing) {
  auto shared = lin::Rc<std::string>::Make("rule");
  Pair p{shared, shared};
  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kNone, &stats);
  EXPECT_EQ(stats.payload_copies, 2u) << "Figure 3b: one copy per alias";
  EXPECT_EQ(stats.back_refs, 0u);
  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "rule");
  EXPECT_EQ(*restored.right, "rule");
  EXPECT_FALSE(restored.left.SameObject(restored.right))
      << "naive restore silently splits shared state";
}

TEST(RcCkpt, DistinctObjectsStayDistinct) {
  Pair p{lin::Rc<std::string>::Make("a"), lin::Rc<std::string>::Make("b")};
  Pair restored = RoundTrip(p);
  EXPECT_EQ(*restored.left, "a");
  EXPECT_EQ(*restored.right, "b");
  EXPECT_FALSE(restored.left.SameObject(restored.right));
}

TEST(RcCkpt, EmptyHandleRoundTrips) {
  Pair p{lin::Rc<std::string>(), lin::Rc<std::string>::Make("only")};
  Pair restored = RoundTrip(p);
  EXPECT_FALSE(restored.left.has_value());
  ASSERT_TRUE(restored.right.has_value());
}

TEST(RcCkpt, ConsecutiveEpochsNeedNoClearing) {
  auto shared = lin::Rc<std::string>::Make("r");
  Pair p{shared, shared};
  for (int round = 0; round < 5; ++round) {
    CheckpointStats stats;
    (void)Checkpoint(p, DedupMode::kLinearMark, &stats);
    EXPECT_EQ(stats.payload_copies, 1u) << "round " << round
        << ": stale marks from the previous epoch must read as unvisited";
  }
}

TEST(RcCkpt, VectorOfAliases) {
  auto hot = lin::Rc<std::string>::Make("hot");
  std::vector<lin::Rc<std::string>> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(hot);
  }
  v.push_back(lin::Rc<std::string>::Make("cold"));

  CheckpointStats stats;
  Snapshot snap = Checkpoint(v, DedupMode::kLinearMark, &stats);
  EXPECT_EQ(stats.payload_copies, 2u);
  EXPECT_EQ(stats.back_refs, 9u);

  auto restored = Restore<std::vector<lin::Rc<std::string>>>(snap);
  ASSERT_EQ(restored.size(), 11u);
  for (int i = 1; i < 10; ++i) {
    EXPECT_TRUE(restored[0].SameObject(restored[i]));
  }
  EXPECT_FALSE(restored[0].SameObject(restored[10]));
}

TEST(ArcCkpt, SharedStateWithMutexRoundTrips) {
  using Shared = lin::Arc<lin::Mutex<std::vector<int>>>;
  auto state = Shared::Make(std::vector<int>{1, 2});
  struct Holder {
    Shared a;
    Shared b;
    LINSYS_CHECKPOINT_FIELDS(a, b)
  };
  Holder h{state, state};
  Snapshot snap = Checkpoint(h);
  Holder restored = Restore<Holder>(snap);
  EXPECT_TRUE(restored.a.SameObject(restored.b));
  EXPECT_EQ(*restored.a.SharedMut().Lock(), (std::vector<int>{1, 2}));
}

TEST(Snapshot, SnapshotIsImmutableCopy) {
  auto rc = lin::Rc<std::string>::Make("before");
  Pair p{rc, rc};
  Snapshot snap = Checkpoint(p);
  // Replacing the live object after the checkpoint must not affect restore.
  p = Pair{lin::Rc<std::string>::Make("after"),
           lin::Rc<std::string>::Make("after")};
  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "before");
}

TEST(Snapshot, TruncatedSnapshotPanics) {
  Snapshot snap = Checkpoint(std::vector<int>{1, 2, 3});
  snap.bytes.resize(snap.bytes.size() / 2);
  EXPECT_THROW((void)Restore<std::vector<int>>(snap), util::PanicError);
}

// Corrupt length fields in a std::vector<std::string> image. Failover
// restores images like this, so each must be refused as a PanicError before
// anything is sized from it — not escape as std::length_error (reserve) or
// std::bad_alloc (the string buffer).
TEST(Snapshot, CorruptLengthsPanicBeforeAllocating) {
  struct Probe {
    const char* what;
    std::uint64_t outer_len;
    std::uint64_t string_len;
  };
  for (const Probe& probe : {Probe{"outer length 2^61", 1ULL << 61, 0},
                             Probe{"string length 2^40", 1, 1ULL << 40}}) {
    Writer w(DedupMode::kLinearMark, NextEpoch());
    w.WritePod<std::uint64_t>(probe.outer_len);
    w.WritePod<std::uint64_t>(probe.string_len);
    w.WriteBytes("abc", 3);
    const Snapshot snap = w.Finish();
    EXPECT_THROW((void)Restore<std::vector<std::string>>(snap),
                 util::PanicError)
        << probe.what;
  }
}

// A back-reference must name a node of the handle's own type. The second
// handle of a pair<Rc<int>, Rc<string>> image, rewritten as a back-reference
// to the first handle's id, must be refused as a PanicError — not escape as
// std::bad_any_cast past every PanicError handler.
TEST(Snapshot, WrongTypeBackReferencePanics) {
  using Mixed = std::pair<lin::Rc<int>, lin::Rc<std::string>>;
  Snapshot snap = Checkpoint(
      Mixed{lin::Rc<int>::Make(7), lin::Rc<std::string>::Make("seven")});
  // The first handle is tag, id and the int payload.
  constexpr std::size_t kIdAt = 1;
  constexpr std::size_t kSecondAt = kIdAt + sizeof(std::uint64_t) + sizeof(int);
  ASSERT_EQ(snap.bytes[0], static_cast<std::uint8_t>(internal::RcTag::kNew));
  const std::vector<std::uint8_t> first_id(
      snap.bytes.begin() + kIdAt,
      snap.bytes.begin() + kIdAt + sizeof(std::uint64_t));
  snap.bytes.resize(kSecondAt);
  snap.bytes.push_back(static_cast<std::uint8_t>(internal::RcTag::kRef));
  snap.bytes.insert(snap.bytes.end(), first_id.begin(), first_id.end());
  EXPECT_THROW((void)Restore<Mixed>(snap), util::PanicError);
}

// Copy-ids are dense in stream order: a first copy must carry the next id,
// and a back-reference must name a node whose payload is already built.
// Anything else is a corrupt snapshot.
TEST(Snapshot, CopyIdOutOfOrderPanics) {
  Writer skip(DedupMode::kLinearMark, NextEpoch());
  skip.WritePod(internal::RcTag::kNew);
  skip.WritePod<std::uint64_t>(2);  // the first copy must be id 1
  skip.WritePod<int>(7);
  EXPECT_THROW((void)Restore<lin::Rc<int>>(skip.Finish()), util::PanicError);

  // A node whose payload refers back to itself: id 1 is reserved while its
  // payload loads, but not yet filled.
  using Nested = lin::Rc<std::vector<lin::Rc<int>>>;
  Writer self(DedupMode::kLinearMark, NextEpoch());
  self.WritePod(internal::RcTag::kNew);
  self.WritePod<std::uint64_t>(1);
  self.WritePod<std::uint64_t>(1);  // one element
  self.WritePod(internal::RcTag::kRef);
  self.WritePod<std::uint64_t>(1);
  EXPECT_THROW((void)Restore<Nested>(self.Finish()), util::PanicError);
}

// Ids are taken per first visit only, so a graph with back-references gets
// ids 1, 2, 3, ... in stream order in both dedup modes.
TEST(Snapshot, CopyIdsAreDenseInBothDedupModes) {
  auto a = lin::Rc<int>::Make(1);
  auto b = lin::Rc<int>::Make(2);
  const std::vector<lin::Rc<int>> v{a, a, b, a, b};
  for (DedupMode mode : {DedupMode::kLinearMark, DedupMode::kAddressSet}) {
    const Snapshot snap = Checkpoint(v, mode);
    Reader r(snap);
    ASSERT_EQ(r.ReadPod<std::uint64_t>(), v.size());
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto tag = r.ReadPod<internal::RcTag>();
      ids.push_back(r.ReadPod<std::uint64_t>());
      if (tag == internal::RcTag::kNew) {
        (void)r.ReadPod<int>();
      }
    }
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 1, 2, 1, 2}));
    const auto back = Restore<std::vector<lin::Rc<int>>>(snap);
    EXPECT_TRUE(back[0].SameObject(back[3]));
    EXPECT_TRUE(back[2].SameObject(back[4]));
  }
}

// A bool is one byte, 0 or 1. The seeded decode fuzzing found a flipped
// FwRule::allow byte loaded as a bool, which is undefined behaviour.
TEST(Snapshot, BoolOutOfRangePanics) {
  Writer w(DedupMode::kLinearMark, NextEpoch());
  w.WritePod<std::uint8_t>(20);
  EXPECT_THROW((void)Restore<bool>(w.Finish()), util::PanicError);
  EXPECT_TRUE(Restore<bool>(Checkpoint(true)));
  EXPECT_FALSE(Restore<bool>(Checkpoint(false)));
}

TEST(Snapshot, TrailingBytesPanics) {
  Snapshot snap = Checkpoint(7);
  snap.bytes.push_back(0xff);
  EXPECT_THROW((void)Restore<int>(snap), util::PanicError);
}

TEST(Snapshot, SizeReflectsDedup) {
  auto big = lin::Rc<std::string>::Make(std::string(1000, 'x'));
  std::vector<lin::Rc<std::string>> v(8, big);
  Snapshot linear = Checkpoint(v, DedupMode::kLinearMark);
  Snapshot naive = Checkpoint(v, DedupMode::kNone);
  EXPECT_LT(linear.size_bytes() * 4, naive.size_bytes())
      << "naive snapshots blow up with the alias count";
}

}  // namespace
}  // namespace ckpt
