// Remote-reference semantics from §3: mediation through the reference table,
// borrow-for-the-duration argument passing, ownership transfer, revocation,
// policy interception, and fault conversion — including the paper's own
// usage listing transcribed at the end.
#include "src/sfi/rref.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/lin/own.h"
#include "src/sfi/manager.h"
#include "src/sfi/policy.h"
#include "src/util/panic.h"

namespace sfi {
namespace {

struct Counter {
  int value = 0;
  int Increment() { return ++value; }
};

TEST(RRef, CallBorrowsRemoteObject) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> rref = d.Export(Counter{});
  for (int i = 1; i <= 5; ++i) {
    auto r = rref.Call([](Counter& c) { return c.Increment(); });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), i) << "state persists across invocations";
  }
  EXPECT_EQ(d.stats().calls_ok, 5u);
}

TEST(RRef, CallRunsInOwnersDomainContext) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> rref = d.Export(Counter{});
  auto r = rref.Call([](Counter&) { return ScopedDomain::Current(); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), d.id());
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain);
}

TEST(RRef, VoidCall) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> rref = d.Export(Counter{});
  auto r = rref.Call([](Counter& c) { c.value = 9; });
  EXPECT_TRUE(r.ok());
  auto check = rref.Call([](Counter& c) { return c.value; });
  EXPECT_EQ(check.value(), 9);
}

// Owned arguments change ownership permanently (paper: "all other arguments
// change their ownership permanently").
TEST(RRef, OwnedArgumentTransfersPermanently) {
  DomainManager mgr;
  Domain& d = mgr.Create("sink");
  struct Sink {
    std::vector<lin::Own<std::string>> received;
  };
  RRef<Sink> rref = d.Export(Sink{});

  auto msg = lin::Make<std::string>("payload");
  auto r = rref.Call([m = std::move(msg)](Sink& s) mutable {
    s.received.push_back(std::move(m));
  });
  ASSERT_TRUE(r.ok());
  // The sender's handle is consumed: any use panics (zero-copy isolation).
  EXPECT_THROW((void)*msg, util::PanicError);
  auto len = rref.Call(
      [](Sink& s) { return s.received.back().Borrow()->size(); });
  EXPECT_EQ(len.value(), 7u);
}

TEST(RRef, RevocationMakesCallsFail) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> rref = d.Export(Counter{});
  ASSERT_TRUE(rref.IsLive());
  ASSERT_TRUE(d.Revoke(rref.slot()));
  EXPECT_FALSE(rref.IsLive());
  auto r = rref.Call([](Counter& c) { return c.value; });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), CallError::kRevoked);
  EXPECT_FALSE(d.Revoke(rref.slot())) << "double revoke reports false";
}

TEST(RRef, RevokingOneLeavesOthersLive) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> a = d.Export(Counter{});
  RRef<Counter> b = d.Export(Counter{});
  d.Revoke(a.slot());
  EXPECT_FALSE(a.IsLive());
  EXPECT_TRUE(b.IsLive());
  EXPECT_TRUE(b.Call([](Counter& c) { return c.Increment(); }).ok());
}

TEST(RRef, EmptyRRefReportsRevoked) {
  RRef<Counter> empty;
  EXPECT_FALSE(empty.IsLive());
  auto r = empty.Call([](Counter& c) { return c.value; });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), CallError::kRevoked);
}

// The paper's listing: panic inside the callee -> Err to the caller, domain
// failed; recovery re-populates the table making the failure transparent.
TEST(RRef, PanicDuringCallReturnsFaultAndFailsDomain) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> rref = d.Export(Counter{});
  auto r = rref.Call([](Counter&) -> int {
    util::Panic(util::PanicKind::kBoundsCheck, "index 12 out of range");
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), CallError::kFault);
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain) << "stack unwound to entry";

  // While failed: calls through still-live rrefs report domain failure.
  auto blocked = rref.Call([](Counter& c) { return c.value; });
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error(), CallError::kDomainFailed);
}

// A non-panic exception is the same fault as a panic: kFault to the caller,
// the domain Failed, and recovery makes it transparent.
TEST(RRef, NonPanicExceptionDuringCallReturnsFault) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  RRef<Counter> published = d.Export(Counter{});
  d.SetRecovery([&published](Domain& self) {
    published = self.Export(Counter{});
  });

  auto r = published.Call(
      [](Counter&) -> int { throw std::runtime_error("operator bug"); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), CallError::kFault);
  EXPECT_EQ(d.state(), DomainState::kFailed);
  EXPECT_EQ(ScopedDomain::Current(), kRootDomain) << "stack unwound to entry";

  ASSERT_TRUE(d.Recover());
  auto after = published.Call([](Counter& c) { return c.Increment(); });
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), 1) << "fresh state after recovery";
}

TEST(RRef, TransparentRecoveryViaManager) {
  DomainManager mgr;
  Domain& d = mgr.Create("svc");
  // The service publishes its rref through a location clients re-read; the
  // recovery function re-populates it, making the failure transparent.
  RRef<Counter> published = d.Export(Counter{});
  d.SetRecovery([&published](Domain& self) {
    published = self.Export(Counter{});
  });

  (void)published.Call([](Counter&) -> int { util::Panic("crash"); });
  ASSERT_EQ(d.state(), DomainState::kFailed);
  ASSERT_EQ(mgr.RecoverAllFailed(), 1u);

  auto r = published.Call([](Counter& c) { return c.Increment(); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1) << "fresh state after recovery";
}

TEST(RRef, PolicyDeniesByCaller) {
  DomainManager mgr;
  Domain& server = mgr.Create("server");
  Domain& friendly = mgr.Create("friend");
  Domain& hostile = mgr.Create("hostile");
  server.SetPolicy(AllowCallers({friendly.id()}));
  RRef<Counter> rref = server.Export(Counter{});

  auto from_friend = friendly.Execute([&] {
    return rref.Call([](Counter& c) { return c.Increment(); });
  });
  ASSERT_TRUE(from_friend.ok());
  EXPECT_TRUE(from_friend.value().ok());

  auto from_hostile = hostile.Execute([&] {
    return rref.Call([](Counter& c) { return c.Increment(); });
  });
  ASSERT_TRUE(from_hostile.ok());
  ASSERT_FALSE(from_hostile.value().ok());
  EXPECT_EQ(from_hostile.value().error(), CallError::kAccessDenied);
  EXPECT_EQ(server.stats().calls_denied, 1u);
}

TEST(RRef, PolicyDeniesByMethod) {
  DomainManager mgr;
  Domain& server = mgr.Create("server");
  server.SetPolicy(AllowMethods({"read"}));
  RRef<Counter> rref = server.Export(Counter{});

  auto read = rref.Call([](Counter& c) { return c.value; }, "read");
  EXPECT_TRUE(read.ok());
  auto write = rref.Call([](Counter& c) { return c.Increment(); }, "write");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.error(), CallError::kAccessDenied);
  auto anon = rref.Call([](Counter& c) { return c.value; });
  EXPECT_FALSE(anon.ok()) << "allow-list denies unnamed methods";
}

TEST(RRef, CombinedPolicy) {
  DomainManager mgr;
  Domain& server = mgr.Create("server");
  Domain& caller = mgr.Create("caller");
  server.SetPolicy(Both(AllowCallers({caller.id()}), AllowMethods({"read"})));
  RRef<Counter> rref = server.Export(Counter{});
  auto ok = caller.Execute(
      [&] { return rref.Call([](Counter& c) { return c.value; }, "read"); });
  EXPECT_TRUE(ok.value().ok());
  auto bad_method = caller.Execute(
      [&] { return rref.Call([](Counter& c) { return c.value; }, "write"); });
  EXPECT_FALSE(bad_method.value().ok());
}

// Transcription of the paper's §3 usage listing.
TEST(RRef, PaperListing) {
  DomainManager mgr;
  /* Inside domain manager: */
  Domain& d = mgr.Create("pd");  // create a PD
  // create an object inside PD and wrap it in RRef
  auto exported = d.Execute([&d] { return d.Export(Counter{}); });
  ASSERT_TRUE(exported.ok());
  RRef<Counter> rref = std::move(exported).value();

  /* Invoke rref from another PD: */
  auto result = rref.Call([](Counter& c) { return c.Increment(); },
                          "method1");
  if (result.ok()) {
    EXPECT_EQ(result.value(), 1);  // "Result: 1"
  } else {
    FAIL() << "method1() failed";
  }
}

}  // namespace
}  // namespace sfi
