// obs::Profiler — the sampling profiler behind GET /profile.
//
// What these tests pin down:
//   * a window over a CPU-burning registered thread produces folded samples
//     attributed to the thread's current phase/stage (not just idle);
//   * the folded output is format-valid (`frame(;frame)* count` plus '#'
//     comments) — the same grammar trace_lint --folded enforces in CI;
//   * window lifecycle: double-open refused, stop without open is inert,
//     back-to-back windows reset the tables;
//   * the Dekker drain handshake: StopWindowFolded racing live SIGPROF
//     traffic neither crashes nor tears (this test runs in the TSan matrix);
//   * context setters are no-ops on unregistered threads and scopes restore
//     their previous value on exit.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace {

// Parses folded text; fails the test on any malformed line. Returns the
// total tick count whose stack contains `needle` (empty = all stacks).
std::uint64_t FoldedTicks(const std::string& folded,
                          const std::string& needle) {
  std::uint64_t ticks = 0;
  std::istringstream in(folded);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << "line " << line_no << ": " << line;
    if (sp == std::string::npos) {
      continue;
    }
    const std::string stack = line.substr(0, sp);
    const std::string count = line.substr(sp + 1);
    EXPECT_FALSE(stack.empty()) << "line " << line_no;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << "line " << line_no << ": " << line;
    EXPECT_EQ(stack.find(' '), std::string::npos)
        << "space inside stack, line " << line_no << ": " << line;
    if (needle.empty() || stack.find(needle) != std::string::npos) {
      ticks += std::strtoull(count.c_str(), nullptr, 10);
    }
  }
  return ticks;
}

// Spins in execute phase with a stage + flow attached until told to stop.
// Registered under `name`; enters the profiler scopes fresh each lap so a
// window opened after launch still sees armed scopes.
void BurnLoop(const char* name, std::atomic<bool>* go,
              std::atomic<bool>* stop) {
  obs::Profiler::Global().RegisterThisThread(name);
  while (!go->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  volatile std::uint64_t sink = 0;
  while (!stop->load(std::memory_order_acquire)) {
    obs::ScopedProfilerPhase exec(obs::ProfilerPhase::kExecute);
    obs::ScopedProfilerStage stage("burn_stage");
    obs::ScopedFlowId flow(0x2a);
    for (int i = 0; i < 20000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
  }
  obs::Profiler::Global().UnregisterThisThread();
}

TEST(Profiler, WindowAttributesBusyThreadToPhaseAndStage) {
  auto& prof = obs::Profiler::Global();
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::thread worker(BurnLoop, "ptest_worker", &go, &stop);

  std::string error;
  ASSERT_TRUE(prof.StartWindow(200, &error)) << error;
  EXPECT_TRUE(prof.window_open());

  // Double-open is refused while the first window runs.
  std::string error2;
  EXPECT_FALSE(prof.StartWindow(200, &error2));
  EXPECT_FALSE(error2.empty());

  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::string folded = prof.StopWindowFolded();
  stop.store(true, std::memory_order_release);
  worker.join();

  EXPECT_FALSE(prof.window_open());
  EXPECT_NE(folded.find("# linsys-profile"), std::string::npos) << folded;
  // The burner spent ~all its CPU in execute/burn_stage; a 400ms window at
  // 200us must catch it there at least once (CI boxes can be slow — demand
  // presence, not a rate).
  EXPECT_GT(FoldedTicks(folded, "ptest_worker;execute;burn_stage"), 0u)
      << folded;
  // The flow id set in the loop surfaces as an exemplar comment.
  EXPECT_NE(folded.find("flow=0x2a"), std::string::npos) << folded;
}

TEST(Profiler, StopWithoutOpenWindowIsInert) {
  const std::string folded = obs::Profiler::Global().StopWindowFolded();
  EXPECT_NE(folded.find("no open window"), std::string::npos);
}

TEST(Profiler, BackToBackWindowsResetTables) {
  auto& prof = obs::Profiler::Global();
  std::atomic<bool> go{true};
  std::atomic<bool> stop{false};
  std::thread worker(BurnLoop, "ptest_reset", &go, &stop);

  std::string error;
  ASSERT_TRUE(prof.StartWindow(200, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const std::uint64_t first =
      FoldedTicks(prof.StopWindowFolded(), "ptest_reset");

  // Second window: the burner is still running; counts must restart from
  // zero, not accumulate onto the first window's tally.
  ASSERT_TRUE(prof.StartWindow(200, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const std::string folded2 = prof.StopWindowFolded();
  stop.store(true, std::memory_order_release);
  worker.join();

  const std::uint64_t second = FoldedTicks(folded2, "ptest_reset");
  if (first > 4) {
    // Equal-length windows over the same steady burner: if the table had
    // leaked across windows, `second` would be >= first + first's ticks.
    EXPECT_LT(second, first * 4) << folded2;
  }
  EXPECT_GT(second, 0u) << folded2;
}

TEST(Profiler, DrainRacesLiveSamplingWithoutTearing) {
  // Hammer open/close while two threads burn CPU with scopes flapping —
  // the TSan job re-runs this; any handler/drain race is a report there,
  // and any protocol bug tends to show up here as a hang or a crash.
  auto& prof = obs::Profiler::Global();
  std::atomic<bool> go{true};
  std::atomic<bool> stop{false};
  std::thread a(BurnLoop, "ptest_race_a", &go, &stop);
  std::thread b(BurnLoop, "ptest_race_b", &go, &stop);

  for (int round = 0; round < 5; ++round) {
    std::string error;
    ASSERT_TRUE(prof.StartWindow(100, &error)) << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const std::string folded = prof.StopWindowFolded();
    // Header totals must cover every rendered sample line: attributed
    // (samples - overflow) >= sum of folded counts would catch a torn read.
    FoldedTicks(folded, "");  // format assertions only
  }
  stop.store(true, std::memory_order_release);
  a.join();
  b.join();
}

TEST(Profiler, UnregisteredThreadSettersAreNoOps) {
  // This thread never registered: scopes and setters must not touch
  // anything (g_prof_ctx is null), armed or not.
  std::atomic<bool> go{true};
  std::atomic<bool> stop{false};
  std::thread worker(BurnLoop, "ptest_bg", &go, &stop);
  std::string error;
  ASSERT_TRUE(obs::Profiler::Global().StartWindow(200, &error)) << error;
  {
    obs::ScopedProfilerPhase p(obs::ProfilerPhase::kExecute);
    obs::ScopedProfilerStage s("should_not_appear");
    obs::ScopedFlowId flow(0xdead);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string folded = obs::Profiler::Global().StopWindowFolded();
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_EQ(folded.find("should_not_appear"), std::string::npos) << folded;
}

TEST(Profiler, ScopesRestoreOnExit) {
  auto& prof = obs::Profiler::Global();
  prof.RegisterThisThread("ptest_scope");
  std::string error;
  ASSERT_TRUE(prof.StartWindow(1000, &error)) << error;
  {
    obs::ScopedProfilerPhase outer(obs::ProfilerPhase::kRecover);
    EXPECT_EQ(obs::internal::g_prof_ctx->phase.load(),
              static_cast<std::uint8_t>(obs::ProfilerPhase::kRecover));
    {
      obs::ScopedProfilerPhase inner(obs::ProfilerPhase::kExecute);
      obs::ScopedProfilerStage stage("inner_stage");
      EXPECT_EQ(obs::internal::g_prof_ctx->phase.load(),
                static_cast<std::uint8_t>(obs::ProfilerPhase::kExecute));
      EXPECT_STREQ(obs::internal::g_prof_ctx->stage.load(), "inner_stage");
    }
    // Inner scopes restored phase and stage on exit.
    EXPECT_EQ(obs::internal::g_prof_ctx->phase.load(),
              static_cast<std::uint8_t>(obs::ProfilerPhase::kRecover));
    EXPECT_EQ(obs::internal::g_prof_ctx->stage.load(), nullptr);
  }
  EXPECT_EQ(obs::internal::g_prof_ctx->phase.load(),
            static_cast<std::uint8_t>(obs::ProfilerPhase::kIdle));
  (void)prof.StopWindowFolded();
  prof.UnregisterThisThread();
}

}  // namespace
