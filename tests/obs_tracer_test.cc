// obs::Tracer — ring behavior (wraparound counted, never blocking),
// disarmed no-op guarantee, and well-formedness of the chrome://tracing
// export. Tests use Tracer::Global() (the macro target), resetting it
// around each test; tests in this binary therefore run serially, which is
// gtest's default.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/util/cycles.h"

namespace {

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().Disarm();
    obs::Tracer::Global().Reset();
  }
  void TearDown() override {
    obs::Tracer::Global().Disarm();
    obs::Tracer::Global().Reset();
  }
};

TEST_F(TracerTest, DisarmedRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  EXPECT_FALSE(obs::Tracer::ArmedFast());
  tracer.Instant("ignored");
  tracer.Span("ignored", util::CycleStart(), 10);
  LINSYS_TRACE_INSTANT("ignored.macro");
  { LINSYS_TRACE_SPAN("ignored.span"); }
  EXPECT_EQ(tracer.buffered_events(), 0u);
  EXPECT_EQ(tracer.total_events(), 0u);
}

TEST_F(TracerTest, ArmedCapturesSpansAndInstants) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  tracer.SetThreadName("test-main");
  LINSYS_TRACE_INSTANT("evt.instant");
  LINSYS_TRACE_INSTANT_ARG("evt.arged", 7);
  {
    LINSYS_TRACE_SPAN("evt.span");
  }
  EXPECT_EQ(tracer.buffered_events(), 3u);
  EXPECT_EQ(tracer.total_events(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST_F(TracerTest, RingWraparoundCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::Global();
  constexpr std::size_t kCapacity = 1 << 4;  // tiny ring: 16 events
  tracer.Arm(kCapacity);
  constexpr std::uint64_t kTotal = 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    tracer.InstantArg("wrap", i);
  }
  EXPECT_EQ(tracer.total_events(), kTotal);
  EXPECT_EQ(tracer.buffered_events(), kCapacity);
  EXPECT_EQ(tracer.dropped_events(), kTotal - kCapacity);
}

TEST_F(TracerTest, ArmRoundsCapacityUpToPowerOfTwo) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(10);  // rounds up to 16
  for (int i = 0; i < 16; ++i) {
    tracer.Instant("fill");
  }
  EXPECT_EQ(tracer.buffered_events(), 16u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST_F(TracerTest, InternedNamesSurviveAndDedupe) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  const char* a = tracer.Intern(std::string("fault:") + "site_a");
  const char* b = tracer.Intern("fault:site_a");
  EXPECT_EQ(a, b);  // deduped to the same stable pointer
  const char* c = tracer.Intern("fault:site_b");
  EXPECT_NE(a, c);
  tracer.Instant(a);
  EXPECT_EQ(tracer.buffered_events(), 1u);
}

TEST_F(TracerTest, MultiThreadedEventsLandInPerThreadRings) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  constexpr int kThreads = 3;
  constexpr int kEventsPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      tracer.SetThreadName("worker" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        tracer.Instant("mt.event");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(tracer.total_events(),
            static_cast<std::uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST_F(TracerTest, ExportIsWellFormedChromeJson) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  tracer.SetThreadName("exporter");
  const std::uint64_t begin = util::CycleStart();
  LINSYS_TRACE_INSTANT_ARG("export.instant", 99);
  tracer.Span("export.span", begin, 1000);

  const std::string json = tracer.ExportChromeJson();
  // Structural skeleton.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The named events, their phases, and the thread-name metadata record.
  EXPECT_NE(json.find("\"name\":\"export.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":99}"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("exporter"), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy (the full check
  // lives in tools/trace_lint).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TracerTest, ResetDropsBufferedEvents) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  tracer.Instant("pre-reset");
  EXPECT_EQ(tracer.buffered_events(), 1u);
  tracer.Disarm();
  tracer.Reset();
  EXPECT_EQ(tracer.buffered_events(), 0u);
  EXPECT_EQ(tracer.total_events(), 0u);
}

TEST_F(TracerTest, FlowIdContextNestsAndRestores) {
  EXPECT_EQ(obs::CurrentFlowId(), 0u);
  const std::uint64_t a = obs::NextFlowId();
  const std::uint64_t b = obs::NextFlowId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  {
    obs::ScopedFlowId outer(a);
    EXPECT_EQ(obs::CurrentFlowId(), a);
    {
      obs::ScopedFlowId inner(b);
      EXPECT_EQ(obs::CurrentFlowId(), b);
    }
    EXPECT_EQ(obs::CurrentFlowId(), a);  // inner scope restored the outer id
  }
  EXPECT_EQ(obs::CurrentFlowId(), 0u);
  // Flow context is thread-local: another thread starts clean.
  std::uint64_t other_thread_flow = 99;
  {
    obs::ScopedFlowId outer(a);
    std::thread peek([&] { other_thread_flow = obs::CurrentFlowId(); });
    peek.join();
  }
  EXPECT_EQ(other_thread_flow, 0u);
}

TEST_F(TracerTest, AsyncEventsExportCatAndHexId) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  tracer.SetThreadName("async-exporter");
  tracer.AsyncBegin("flow.dispatch", "flow", 0x2aULL);
  tracer.AsyncInstant("flow.stage", "flow", 0x2aULL);
  tracer.AsyncEnd("flow.dispatch", "flow", 0x2aULL);

  const std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos) << json;
  // Ids export as hex strings: doubles would mangle full 64-bit ids.
  EXPECT_NE(json.find("\"id\":\"0x2a\""), std::string::npos) << json;
}

TEST_F(TracerTest, AsyncSpanPairsBeginEndAndNoopsOnZeroId) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 8);
  {
    obs::AsyncSpan span("flow.recover", "flow", 0x7ULL);
  }
  EXPECT_EQ(tracer.buffered_events(), 2u);  // one 'b' + one 'e'
  {
    obs::AsyncSpan span("flow.recover", "flow", 0);  // id 0: no-op
  }
  EXPECT_EQ(tracer.buffered_events(), 2u);
  // The macro picks up arm state at entry; disarmed means nothing is
  // emitted even if the tracer re-arms before scope exit.
  tracer.Disarm();
  tracer.Reset();
  {
    LINSYS_TRACE_ASYNC_SPAN("flow.skipped", "flow", 0x8ULL);
    tracer.Arm(1 << 8);
  }
  EXPECT_EQ(tracer.buffered_events(), 0u);  // span stayed silent end to end
}

// Two live drains at once — an ops /trace scrape and an in-process export —
// must not overlap: a drain that re-arms while the other is still reading
// the rings lets writers touch a ring under that reader (a data race the
// thread sanitizer reports on the ring cursor).
TEST_F(TracerTest, ConcurrentDrainsDoNotOverlap) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Arm(1 << 10);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      tracer.Instant("live");
    }
  });
  auto drainer = [&] {
    for (int i = 0; i < 200; ++i) {
      const std::string json = tracer.DrainChromeJson();
      EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    }
  };
  std::thread a(drainer);
  std::thread b(drainer);
  a.join();
  b.join();
  stop = true;
  writer.join();
  EXPECT_TRUE(obs::Tracer::ArmedFast()) << "the drains must re-arm the tracer";
}

TEST(TracerCalibration, CyclesPerMicrosecondIsSane) {
  const double rate = obs::CyclesPerMicrosecond();
  // Real TSCs run 1e2..1e5 cycles/µs; the no-rdtsc fallback returns exactly
  // 1000 (cycles are nanoseconds there).
  EXPECT_GT(rate, 1.0);
  EXPECT_LT(rate, 1e6);
}

}  // namespace
