#include "src/sfi/domain.h"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/sfi/manager.h"
#include "src/sfi/rref.h"
#include "src/util/panic.h"

namespace sfi {
namespace {

TEST(ScopedDomain, NestsAndRestores) {
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);
  {
    ScopedDomain outer(7);
    EXPECT_EQ(ScopedDomain::Current(), 7u);
    {
      ScopedDomain inner(9);
      EXPECT_EQ(ScopedDomain::Current(), 9u);
    }
    EXPECT_EQ(ScopedDomain::Current(), 7u);
  }
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);
}

TEST(ScopedDomain, RestoredAcrossUnwind) {
  try {
    ScopedDomain enter(5);
    util::Panic("inside domain 5");
  } catch (const util::PanicError&) {
  }
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);
}

TEST(ScopedDomain, PerThreadIdentity) {
  ScopedDomain enter(3);
  DomainId seen_in_thread = 999;
  std::thread t([&] { seen_in_thread = ScopedDomain::Current(); });
  t.join();
  EXPECT_EQ(seen_in_thread, kRootDomain)
      << "a fresh thread starts in the root domain";
  EXPECT_EQ(ScopedDomain::Current(), 3u);
}

TEST(Domain, ExecuteRunsInsideDomain) {
  Domain d(4, "worker");
  auto result = d.Execute([] { return ScopedDomain::Current(); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 4u);
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);
}

TEST(Domain, ExecuteVoidResult) {
  Domain d(1, "v");
  int side_effect = 0;
  auto result = d.Execute([&] { side_effect = 42; });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(side_effect, 42);
}

TEST(Domain, PanicInExecuteBecomesFaultError) {
  Domain d(2, "faulty");
  auto result = d.Execute([]() -> int { util::Panic("bug"); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), CallError::kFault);
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(d.stats().faults, 1u);
}

// Any exception, not only util::PanicError, is a fault of the domain it
// escapes: caught at the entry point, and recovery brings the domain back.
TEST(Domain, NonPanicExceptionInExecuteBecomesFaultError) {
  Domain d(3, "throws");
  auto result = d.Execute([]() -> int { throw std::runtime_error("bug"); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), CallError::kFault);
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(d.stats().faults, 1u);
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);

  EXPECT_TRUE(d.Recover());
  EXPECT_EQ(d.state(), DomainState::kRunning);
  EXPECT_TRUE(d.Execute([] { return 1; }).ok());
}

TEST(Domain, FailedDomainRefusesEntryUntilRecovered) {
  Domain d(2, "faulty");
  (void)d.Execute([]() -> int { util::Panic("bug"); });
  auto blocked = d.Execute([] { return 1; });
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error(), CallError::kDomainFailed);

  d.Recover();
  EXPECT_EQ(d.state(), DomainState::kRunning);
  auto after = d.Execute([] { return 1; });
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(d.stats().recoveries, 1u);
}

TEST(Domain, RecoveryFunctionRunsInsideDomainAndCanReExport) {
  Domain d(6, "svc");
  RRef<std::string> replacement;
  d.SetRecovery([&replacement](Domain& self) {
    EXPECT_EQ(ScopedDomain::Current(), self.id());
    replacement = self.Export(std::string("fresh"));
  });
  (void)d.Execute([]() -> int { util::Panic("crash"); });
  d.Recover();
  ASSERT_TRUE(replacement.IsLive());
  auto got = replacement.Call([](std::string& s) { return s; });
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "fresh");
}

TEST(Domain, RecoveryClearsRefTable) {
  Domain d(6, "svc");
  auto rref = d.Export(std::string("old"));
  EXPECT_EQ(d.ref_table().size(), 1u);
  d.Recover();
  EXPECT_EQ(d.ref_table().size(), 0u);
  EXPECT_FALSE(rref.IsLive()) << "old rrefs must not survive recovery";
}

TEST(Domain, RetireIsTerminal) {
  Domain d(8, "old");
  auto rref = d.Export(42);
  d.Retire();
  EXPECT_EQ(d.state(), DomainState::kRetired);
  EXPECT_FALSE(rref.IsLive());
  auto res = d.Execute([] { return 0; });
  EXPECT_FALSE(res.ok());
}

TEST(DomainManager, CreateFindRoundTrip) {
  DomainManager mgr;
  Domain& a = mgr.Create("a");
  Domain& b = mgr.Create("b");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(mgr.Find(a.id()), &a);
  EXPECT_EQ(mgr.Find(b.id()), &b);
  EXPECT_EQ(mgr.Find(kRootDomain), nullptr);
  EXPECT_EQ(mgr.Find(999), nullptr);
  EXPECT_EQ(mgr.domain_count(), 2u);
}

TEST(DomainManager, RecoverAllFailedTouchesOnlyFailed) {
  DomainManager mgr;
  Domain& ok_domain = mgr.Create("fine");
  Domain& bad1 = mgr.Create("bad1");
  Domain& bad2 = mgr.Create("bad2");
  (void)bad1.Execute([]() -> int { util::Panic("x"); });
  (void)bad2.Execute([]() -> int { util::Panic("y"); });
  EXPECT_EQ(mgr.RecoverAllFailed(), 2u);
  EXPECT_EQ(ok_domain.stats().recoveries, 0u);
  EXPECT_EQ(bad1.state(), DomainState::kRunning);
  EXPECT_EQ(bad2.state(), DomainState::kRunning);
}

TEST(Domain, PanicInRecoveryFunctionIsContained) {
  Domain d(7, "svc");
  int attempts = 0;
  d.SetRecovery([&attempts](Domain&) {
    ++attempts;
    if (attempts < 3) {
      util::Panic("recovery itself crashed");
    }
  });
  (void)d.Execute([]() -> int { util::Panic("crash"); });

  // Two failing recoveries: each is contained (no escape to the caller),
  // counted, and leaves the domain Failed so it can be retried.
  EXPECT_FALSE(d.Recover());
  EXPECT_FALSE(d.Recover());
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(d.stats().recovery_panics, 2u);
  EXPECT_EQ(d.stats().recoveries, 0u);

  // Third attempt succeeds and the domain is usable again.
  EXPECT_TRUE(d.Recover());
  EXPECT_EQ(d.state(), DomainState::kRunning);
  EXPECT_EQ(d.stats().recoveries, 1u);
  EXPECT_TRUE(d.Execute([] { return 1; }).ok());
}

TEST(Domain, BadAllocInRecoveryFunctionIsContained) {
  Domain d(8, "svc");
  d.SetRecovery([](Domain&) { throw std::bad_alloc(); });
  (void)d.Execute([]() -> int { util::Panic("crash"); });

  EXPECT_FALSE(d.Recover());
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(d.stats().recovery_panics, 1u);
  EXPECT_EQ(d.stats().recoveries, 0u);
}

TEST(DomainManager, RecoverAllFailedContainsRecoveryPanics) {
  DomainManager mgr;
  Domain& bad = mgr.Create("bad");
  bad.SetRecovery([](Domain&) { util::Panic("recovery crashed"); });
  (void)bad.Execute([]() -> int { util::Panic("x"); });

  // Must not throw out of the manager, must not count the failed attempt
  // as a recovery, and must leave the domain Failed for the next pass.
  EXPECT_EQ(mgr.RecoverAllFailed(), 0u);
  EXPECT_EQ(bad.state(), DomainState::kFailed);
  EXPECT_EQ(mgr.AggregateStats().recovery_panics, 1u);
}

TEST(DomainManager, RecoverRefusesRetired) {
  DomainManager mgr;
  Domain& d = mgr.Create("done");
  mgr.Retire(d);
  EXPECT_FALSE(mgr.Recover(d));
}

TEST(DomainManager, AggregateStatsSums) {
  DomainManager mgr;
  Domain& a = mgr.Create("a");
  Domain& b = mgr.Create("b");
  (void)a.Execute([] { return 1; });
  (void)a.Execute([] { return 1; });
  (void)b.Execute([]() -> int { util::Panic("z"); });
  DomainStats total = mgr.AggregateStats();
  EXPECT_EQ(total.calls_ok, 2u);
  EXPECT_EQ(total.faults, 1u);
}

TEST(Names, ErrorAndStateNames) {
  EXPECT_EQ(CallErrorName(CallError::kRevoked), "revoked");
  EXPECT_EQ(CallErrorName(CallError::kFault), "fault");
  EXPECT_EQ(DomainStateName(DomainState::kRunning), "running");
  EXPECT_EQ(DomainStateName(DomainState::kRetired), "retired");
}

}  // namespace
}  // namespace sfi
