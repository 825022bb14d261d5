// Live ops surface (obs::OpsServer): the endpoint contract over a unix
// socket (/metrics, /metrics/delta, /trace, /profile, /healthz), protocol
// robustness (malformed / oversized / wrong-method requests answered with
// 4xx, never a crash), concurrent scrapes against a runtime under dispatch
// load, /trace drains racing live tracer writers, clean server teardown
// inside Runtime::Shutdown, /healthz answering while a stage is stuck,
// seeded fuzzing of request parsing, and two acceptance checks: a delta scrape
// spanning a forced CheckpointLive + FailoverWorker reports nonzero interval
// slo_p99_cycles alongside the ckpt_epochs / failovers counter deltas, and
// the same window's SLO header decomposes delivery latency into
// queue/service/fence components that sum back to it while /profile
// attributes the workers' CPU to named phases.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/net/operators/nat.h"
#include "src/net/pktgen.h"
#include "src/net/runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/ops_server.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "tools/json_mini.h"

namespace obs {
namespace {

std::string SockPath(const std::string& tag) {
  return "/tmp/linsys_ops_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

// Raw unix-socket round trip: send `wire` verbatim, half-close the write
// side so the server sees EOF even when the request has no terminator, read
// the full HTTP/1.0 response to EOF. Empty string = connect failure.
std::string RawRequest(const std::string& sock_path, const std::string& wire) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(const std::string& sock_path, const std::string& path) {
  return RawRequest(sock_path, "GET " + path + " HTTP/1.0\r\n\r\n");
}

int StatusOf(const std::string& response) {
  int status = 0;
  if (std::sscanf(response.c_str(), "HTTP/%*s %d", &status) != 1) {
    return -1;
  }
  return status;
}

std::string BodyOf(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

jsonmini::JsonPtr ParseBody(const std::string& response) {
  // JsonParser keeps a reference to its input — the body must outlive it.
  const std::string body = BodyOf(response);
  std::string error;
  jsonmini::JsonParser parser(body);
  jsonmini::JsonPtr root = parser.Parse(&error);
  EXPECT_NE(root, nullptr) << "malformed JSON body: " << error;
  return root;
}

std::vector<net::StageSpec> NatStage() {
  std::vector<net::StageSpec> spec;
  spec.push_back({"nat", [](std::size_t) {
                    return std::make_unique<net::NatRewrite>(0x0a000001);
                  }});
  return spec;
}

net::RuntimeConfig OpsConfig(const std::string& sock_path,
                             std::size_t workers) {
  net::RuntimeConfig cfg;
  cfg.workers = workers;
  cfg.ckpt.enabled = true;
  cfg.ops.unix_path = sock_path;
  return cfg;
}

// A standalone server over a private registry: every endpoint answers with
// the documented status + shape, unknown paths 404.
TEST(OpsServerTest, StandaloneServesAllEndpoints) {
  ArmMetrics(true);
  Registry registry;
  Counter* calls = registry.GetCounter("demo.calls_total");
  Histogram* lat = registry.GetHistogram("demo.latency_cycles");
  calls->AddWithExemplar(0, 3, 0xabc);
  lat->Record(0, 100);
  lat->Record(0, 900);

  Tracer& tracer = Tracer::Global();
  tracer.Arm(1 << 10);
  LINSYS_TRACE_INSTANT("ops.test_marker");

  const std::string sock = SockPath("standalone");
  OpsServerConfig cfg;
  cfg.unix_path = sock;
  cfg.slo_metric = "demo.latency_cycles";
  OpsServer::Hooks hooks;
  hooks.registry = &registry;
  hooks.tracer = &tracer;
  hooks.healthz = [] { return std::string("{\"status\":\"ok\"}"); };
  OpsServer server(cfg, hooks);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::string metrics = Get(sock, "/metrics");
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(BodyOf(metrics).find("demo_calls_total 3"), std::string::npos);
  // The counter exemplar rides the Prometheus line.
  EXPECT_NE(BodyOf(metrics).find("trace_id=\"0xabc\""), std::string::npos);

  const std::string delta = Get(sock, "/metrics/delta");
  EXPECT_EQ(StatusOf(delta), 200);
  const jsonmini::JsonPtr root = ParseBody(delta);
  ASSERT_NE(root, nullptr);
  const jsonmini::JsonValue* slo = root->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->Find("metric")->string_value, "demo.latency_cycles");
  EXPECT_EQ(slo->Find("samples")->number, 2.0);
  EXPECT_GT(slo->Find("slo_p99_cycles")->number, 0.0);
  EXPECT_GT(slo->Find("slo_p999_cycles")->number, 0.0);
  ASSERT_NE(root->Find("delta"), nullptr);

  const std::string trace = Get(sock, "/trace");
  EXPECT_EQ(StatusOf(trace), 200);
  EXPECT_NE(BodyOf(trace).find("traceEvents"), std::string::npos);
  EXPECT_NE(BodyOf(trace).find("ops.test_marker"), std::string::npos);
  ASSERT_NE(ParseBody(trace), nullptr);

  const std::string healthz = Get(sock, "/healthz");
  EXPECT_EQ(StatusOf(healthz), 200);
  EXPECT_NE(BodyOf(healthz).find("\"status\":\"ok\""), std::string::npos);

  EXPECT_EQ(StatusOf(Get(sock, "/nope")), 404);
  EXPECT_GE(server.requests_served(), 5u);
  server.Stop();
  tracer.Disarm();
  ArmMetrics(false);
}

// Wire-level garbage is answered with a 4xx and the server keeps serving.
TEST(OpsServerTest, MalformedRequestsGet4xxWithoutCrash) {
  Registry registry;
  registry.GetCounter("x.total")->Inc(0);
  const std::string sock = SockPath("protocol");
  OpsServerConfig cfg;
  cfg.unix_path = sock;
  OpsServer::Hooks hooks;
  hooks.registry = &registry;
  OpsServer server(cfg, hooks);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  EXPECT_EQ(StatusOf(RawRequest(sock, "POST /metrics HTTP/1.0\r\n\r\n")),
            405);
  EXPECT_EQ(StatusOf(RawRequest(sock, "garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(RawRequest(sock, "GET metrics HTTP/1.0\r\n\r\n")), 400);
  // Oversized request: longer than the cap with no terminator.
  EXPECT_EQ(StatusOf(RawRequest(
                sock, std::string(2 * OpsServer::kMaxRequestBytes, 'A'))),
            431);
  // A zero-byte connection (connect + immediate close) must not wedge it.
  EXPECT_EQ(StatusOf(RawRequest(sock, "")), 400);
  // Query strings are stripped, bare request lines tolerated.
  EXPECT_EQ(StatusOf(RawRequest(sock, "GET /healthz?probe=1\r\n\r\n")), 200);
  // Still alive and correct after all of the above.
  EXPECT_EQ(StatusOf(Get(sock, "/metrics")), 200);
  server.Stop();
}

// One to four edits of a valid request: flipped bytes, a truncation, a stray
// CR or LF, a header line longer than the request cap, or a long run of
// digits after `ms=`.
std::string MutateRequest(const std::string& clean, util::Rng& rng) {
  std::string req = clean;
  const std::uint64_t edits = 1 + rng.Below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.Below(5)) {
      case 0:
        if (!req.empty()) {
          req[rng.Below(req.size())] ^= static_cast<char>(1 + rng.Below(255));
        }
        break;
      case 1:
        req.resize(rng.Below(req.size() + 1));
        break;
      case 2:
        req.insert(rng.Below(req.size() + 1), 1,
                   rng.Below(2) == 0 ? '\r' : '\n');
        break;
      case 3: {
        const std::size_t nl = req.find('\n');
        const std::size_t at = nl == std::string::npos ? req.size() : nl + 1;
        const std::size_t pad = 1 + rng.Below(2 * OpsServer::kMaxRequestBytes);
        req.insert(at, "X-Pad: " + std::string(pad, 'A') + "\r\n");
        break;
      }
      case 4: {
        std::string digits(1 + rng.Below(64), '0');
        for (char& d : digits) {
          d = static_cast<char>('0' + rng.Below(10));
        }
        const std::size_t ms = req.find("ms=");
        const std::size_t at =
            ms == std::string::npos ? rng.Below(req.size() + 1) : ms + 3;
        req.insert(at, digits);
        break;
      }
    }
  }
  return req;
}

class OpsRequestFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Mutated requests against a server with only a registry and a healthz hook,
// so /trace and /profile answer 404 at once instead of opening a window.
// RawRequest half-closes each connection, so no request waits out the
// receive timeout. Every reply is an HTTP/1.0 status from the server's
// vocabulary, every connection counts as one request, and a clean /healthz
// still answers 200 afterwards.
TEST_P(OpsRequestFuzz, MutatedRequestsGetAStatusAndTheServerSurvives) {
  Registry registry;
  registry.GetCounter("fuzz.requests_total")->Inc(0);
  registry.GetHistogram("fuzz.cycles")->Record(0, 42);
  const std::string sock = SockPath("fuzz" + std::to_string(GetParam()));
  OpsServerConfig cfg;
  cfg.unix_path = sock;
  OpsServer::Hooks hooks;
  hooks.registry = &registry;
  hooks.healthz = [] { return std::string("{\"status\":\"ok\"}"); };
  OpsServer server(cfg, hooks);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> clean = {
      "GET /metrics HTTP/1.0\r\n\r\n",
      "GET /metrics/delta HTTP/1.0\r\nAccept: */*\r\n\r\n",
      "GET /healthz?probe=1 HTTP/1.0\r\nHost: localhost\r\n\r\n",
      "GET /profile?ms=200&us=50 HTTP/1.0\r\n\r\n",
      "GET /trace HTTP/1.0\r\n\r\n",
      "GET /healthz\n\n",
  };
  util::Rng rng(GetParam());
  std::uint64_t sent = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& request : clean) {
      const std::string wire = MutateRequest(request, rng);
      const std::string response = RawRequest(sock, wire);
      ++sent;
      ASSERT_EQ(response.rfind("HTTP/1.0 ", 0), 0u)
          << "request " << ::testing::PrintToString(wire);
      const int status = StatusOf(response);
      EXPECT_TRUE(status == 200 || status == 400 || status == 404 ||
                  status == 405 || status == 431)
          << status << " for " << ::testing::PrintToString(wire);
    }
  }
  EXPECT_EQ(StatusOf(Get(sock, "/healthz")), 200);
  ++sent;
  EXPECT_EQ(server.requests_served(), sent);
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsRequestFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

// Concurrent scrapers against a runtime under dispatch load: every request
// gets a 200 and valid payload while workers process traffic. (The TSan CI
// job runs this test; it is the data-race gate for scrape-vs-dispatch.)
TEST(OpsServerTest, ConcurrentScrapesUnderDispatchLoad) {
  const std::string sock = SockPath("load");
  net::Runtime rt(OpsConfig(sock, 2), NatStage());
  rt.Start();

  std::atomic<bool> stop{false};
  std::thread dispatcher([&] {
    net::FlowSampler sampler(64, 0.0, 7);
    net::FlowFeeder feeder(&sampler);
    while (!stop.load(std::memory_order_acquire)) {
      rt.Dispatch(feeder.Next(16));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const char* endpoints[] = {"/metrics", "/metrics/delta", "/healthz"};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        const std::string response = Get(sock, endpoints[(t + i) % 3]);
        if (StatusOf(response) != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& s : scrapers) {
    s.join();
  }
  stop.store(true, std::memory_order_release);
  dispatcher.join();
  EXPECT_EQ(failures.load(), 0);

  // The always-on SLO histogram collected samples from the load. Checked
  // against the cumulative stats, not a delta scrape: every concurrent
  // /metrics/delta above reset the window, so the final interval may
  // legitimately be empty.
  EXPECT_GT(rt.Stats().delivery_latency_cycles.count, 0u);
  const std::string delta = Get(sock, "/metrics/delta");
  ASSERT_EQ(StatusOf(delta), 200);
  const jsonmini::JsonPtr root = ParseBody(delta);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->Find("slo")->Find("metric")->string_value,
            "runtime.delivery_latency_cycles");
  rt.Shutdown();
}

// /trace drains while tracer writers are firing: every drain returns
// well-formed JSON and the tracer stays armed for the writers.
TEST(OpsServerTest, TraceDrainRacesLiveWriters) {
  Tracer& tracer = Tracer::Global();
  tracer.Arm(1 << 10);
  Registry registry;
  const std::string sock = SockPath("trace");
  OpsServerConfig cfg;
  cfg.unix_path = sock;
  OpsServer::Hooks hooks;
  hooks.registry = &registry;
  hooks.tracer = &tracer;
  OpsServer server(cfg, hooks);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        LINSYS_TRACE_INSTANT("race.tick");
        LINSYS_TRACE_ASYNC_INSTANT("race.flow", "flow", 0x99);
      }
    });
  }
  // No ASSERTs inside the loop: an early return here would destroy
  // still-joinable writer threads.
  int bad_drains = 0;
  for (int i = 0; i < 5; ++i) {
    const std::string trace = Get(sock, "/trace");
    if (StatusOf(trace) != 200 || ParseBody(trace) == nullptr) {
      ++bad_drains;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_EQ(bad_drains, 0);
  server.Stop();
  tracer.Disarm();
}

// Runtime::Shutdown tears the server down first: scrapes racing the
// shutdown either complete or fail at the socket, never crash, and once
// Shutdown returns the socket is gone.
TEST(OpsServerTest, ServerStopsCleanlyDuringRuntimeShutdown) {
  const std::string sock = SockPath("shutdown");
  net::Runtime rt(OpsConfig(sock, 2), NatStage());
  rt.Start();
  ASSERT_EQ(StatusOf(Get(sock, "/healthz")), 200);

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)Get(sock, "/healthz");  // success or connect-failure both fine
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rt.Shutdown();
  stop.store(true, std::memory_order_release);
  scraper.join();
  // Stop() unlinked the socket: connects must now fail outright.
  EXPECT_EQ(Get(sock, "/healthz"), "");
}

// Holds a stage until the test opens it: a condition variable, so a held
// stage burns no CPU and the test passes pinned to one core.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Holds its first batch on a gate, then passes every batch.
class GatedStage : public net::Operator {
 public:
  explicit GatedStage(Gate* gate) : gate_(gate) {}

  net::PacketBatch Process(net::PacketBatch batch) override {
    if (!held_) {
      held_ = true;
      gate_->Wait();
    }
    return batch;
  }
  std::string_view name() const override { return "gated"; }

 private:
  Gate* gate_;
  bool held_ = false;
};

// /healthz reads what the workers publish, not their pipeline locks: while
// a stage holds its worker inside one sub-batch, /healthz still answers at
// once and names the stuck worker.
TEST(OpsServerTest, HealthzAnswersWhileAStageIsStuck) {
  Gate gate;
  const std::string sock = SockPath("stuck");
  net::RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.ops.unix_path = sock;
  std::vector<net::StageSpec> spec;
  spec.push_back({"gated", [&gate](std::size_t) {
                    return std::make_unique<GatedStage>(&gate);
                  }});
  net::Runtime rt(cfg, spec);
  rt.Start();
  net::FlowSampler sampler(16, 0.0, 5);
  net::FlowFeeder feeder(&sampler);
  rt.Dispatch(feeder.Next(8));  // the batch the worker is held on

  // No ASSERTs until the gate is open: an early return would leave the
  // worker held and Shutdown waiting on it.
  bool stalled = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!stalled && std::chrono::steady_clock::now() < deadline) {
    for (const auto& g : rt.registry().Scrape().gauges) {
      stalled = stalled || (g.name == "runtime.stalled_workers" && g.value == 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::future<std::string> reply =
      std::async(std::launch::async, [&sock] { return Get(sock, "/healthz"); });
  const bool answered =
      reply.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
  gate.Open();  // either way, before the helper thread is joined
  const std::string healthz = reply.get();
  rt.Shutdown();

  EXPECT_TRUE(stalled) << "runtime.stalled_workers never read 1";
  EXPECT_TRUE(answered) << "/healthz waited behind the stuck stage";
  EXPECT_EQ(StatusOf(healthz), 200);
  const std::string body = BodyOf(healthz);
  EXPECT_NE(body.find("\"stalled_workers\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
}

// The acceptance check: one delta window spanning a forced live checkpoint
// and a worker failover carries nonzero client-visible latency quantiles
// *and* the matching resilience-event counter deltas.
TEST(OpsServerTest, DeltaWindowCorrelatesSloWithCkptAndFailover) {
  const std::string sock = SockPath("slo");
  net::Runtime rt(OpsConfig(sock, 2), NatStage());
  rt.Start();

  net::FlowSampler sampler(64, 0.0, 11);
  net::FlowFeeder feeder(&sampler);
  for (int i = 0; i < 100; ++i) {
    rt.Dispatch(feeder.Next(16));
  }
  // Open a fresh delta window, then make the resilience events fire inside
  // it with traffic on both sides.
  ASSERT_EQ(StatusOf(Get(sock, "/metrics/delta")), 200);
  for (int i = 0; i < 100; ++i) {
    rt.Dispatch(feeder.Next(16));
  }
  ASSERT_TRUE(rt.CheckpointLive());
  ASSERT_TRUE(rt.FailoverWorker(1));
  for (int i = 0; i < 100; ++i) {
    rt.Dispatch(feeder.Next(16));
  }
  // Let the workers account for everything dispatched (300 batches of 16)
  // so the scraped window is guaranteed to contain deliveries.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const net::RuntimeStats s = rt.Stats();
    if (s.totals.packets + s.totals.drops + s.steer_dropped_items >=
        300u * 16u) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string delta = Get(sock, "/metrics/delta");
  ASSERT_EQ(StatusOf(delta), 200);
  const jsonmini::JsonPtr root = ParseBody(delta);
  ASSERT_NE(root, nullptr);
  const jsonmini::JsonValue* slo = root->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->Find("metric")->string_value,
            "runtime.delivery_latency_cycles");
  EXPECT_GT(slo->Find("samples")->number, 0.0);
  EXPECT_GT(slo->Find("slo_p99_cycles")->number, 0.0);
  EXPECT_GT(slo->Find("slo_p999_cycles")->number, 0.0);

  const jsonmini::JsonValue* counters =
      root->Find("delta")->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->Find("runtime.ckpt_epochs_total")->Find("delta")->number,
            1.0);
  EXPECT_GE(counters->Find("runtime.failovers_total")->Find("delta")->number,
            1.0);
  // The failover counter carries a flow-id exemplar into the delta JSON.
  const jsonmini::JsonValue* failover_exemplar =
      counters->Find("runtime.failovers_total")->Find("exemplar");
  if (failover_exemplar != nullptr) {
    EXPECT_FALSE(failover_exemplar->Find("trace_id")->string_value.empty());
  }
  rt.Shutdown();
}

// Parses the `# linsys-profile ... key=value ...` header comment of a folded
// profile; returns the value for `key` or 0 when absent.
std::uint64_t ProfileHeaderValue(const std::string& folded,
                                 const std::string& key) {
  const std::size_t at = folded.find(" " + key + "=");
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(folded.c_str() + at + key.size() + 2, nullptr, 10);
}

// NAT plus a deliberate CPU burn (~tens of microseconds per batch): gives
// the sampling profiler real on-CPU execute time to catch — the plain
// NatRewrite services a batch in ~1us, which a CPU-time timer can go a whole
// window without sampling.
class BurningNat : public net::Operator {
 public:
  net::PacketBatch Process(net::PacketBatch batch) override {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) {
      sink = sink + static_cast<std::uint64_t>(i);
    }
    return nat_.Process(std::move(batch));
  }
  std::string_view name() const override { return "burning_nat"; }

 private:
  net::NatRewrite nat_{0x0a000001};
};

// The decomposition acceptance check ("explain the p99"): one delta window
// spanning a forced CheckpointLive + FailoverWorker under a paced dispatcher
// must report all three latency components in the SLO header, their means
// must sum to the delivery mean (exact by construction — each delivery
// records exactly one sample, possibly zero, in every component), their p50s
// must sum to the delivery p50 within the log-linear bucketization tolerance
// (10%), and a /profile scrape taken inside the same window must return
// folded samples attributing >=90% of non-idle ticks to named phases.
TEST(OpsServerTest, DeltaDecompositionSumsToDeliveryAndProfileAttributes) {
  const std::string sock = SockPath("decomp");
  std::vector<net::StageSpec> spec;
  spec.push_back({"burning_nat", [](std::size_t) {
                    return std::make_unique<BurningNat>();
                  }});
  net::Runtime rt(OpsConfig(sock, 2), spec);
  rt.Start();

  // Warm-up traffic before any window opens (stamps, shard caches).
  net::FlowSampler warm_sampler(64, 0.0, 13);
  net::FlowFeeder warm_feeder(&warm_sampler);
  for (int i = 0; i < 50; ++i) {
    rt.Dispatch(warm_feeder.Next(16));
  }
  std::uint64_t total_batches = 50;

  // Waits until the workers have accounted for every batch dispatched so far.
  auto wait_delivered = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      const net::RuntimeStats s = rt.Stats();
      if (s.totals.packets + s.totals.drops + s.steer_dropped_items >=
          total_batches * 16u) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // The warm-up is delivered before the first window opens: a scrape reads
  // the delivery histogram and its components one after another, so a
  // window opened while deliveries still land starts them from different
  // baselines.
  wait_delivered();

  // One measurement window: paced dispatch with a forced CheckpointLive +
  // FailoverWorker inside it, a /profile scrape mid-storm (first round
  // only), then a delta scrape that closes the window. The structural
  // invariants — all three components present, per-component sample counts
  // equal to deliveries, exact mean additivity, resilience counters — hold
  // per-window regardless of machine load and are asserted every round.
  // The p50 additivity error is *returned*: medians only compose when the
  // box isn't preempting workers mid-batch (at saturation, sum-of-medians
  // legitimately underestimates the median-of-sums), so under CI
  // contention the test re-measures in a fresh window a bounded number of
  // times — one clean window demonstrates the invariant.
  auto run_window = [&](bool scrape_profile, std::string* profile_out,
                        double* p50_err_out) {
    ASSERT_EQ(StatusOf(Get(sock, "/metrics/delta")), 200);  // open window

    // Paced dispatcher: steady load for the whole window so the /profile
    // scrape catches workers mid-execute and the fence/failover events have
    // traffic on both sides, while keeping the workers under saturation.
    std::atomic<bool> stop{false};
    std::atomic<int> paced_batches{0};
    std::thread dispatcher([&] {
      net::FlowSampler sampler(64, 0.0, 17);
      net::FlowFeeder feeder(&sampler);
      while (!stop.load(std::memory_order_acquire)) {
        rt.Dispatch(feeder.Next(16));
        paced_batches.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(400));
      }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const bool ckpt_ok = rt.CheckpointLive();
    const bool failover_ok = rt.FailoverWorker(1);

    // The serving thread sleeps through the 300ms sampling window while
    // workers keep draining. No assertions while the dispatcher is
    // joinable — a gtest early-return past a joinable std::thread is
    // std::terminate.
    std::string profile;
    if (scrape_profile) {
      profile = Get(sock, "/profile?ms=300&us=50");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
    stop.store(true, std::memory_order_release);
    dispatcher.join();
    ASSERT_TRUE(ckpt_ok);
    ASSERT_TRUE(failover_ok);
    if (profile_out != nullptr) {
      *profile_out = std::move(profile);
    }

    // Let the workers account for every batch dispatched so far before
    // closing the delta window.
    total_batches += static_cast<std::uint64_t>(paced_batches.load());
    wait_delivered();

    const std::string delta = Get(sock, "/metrics/delta");
    ASSERT_EQ(StatusOf(delta), 200);
    const jsonmini::JsonPtr root = ParseBody(delta);
    ASSERT_NE(root, nullptr);
    const jsonmini::JsonValue* slo = root->Find("slo");
    ASSERT_NE(slo, nullptr);
    const double delivery_samples = slo->Find("samples")->number;
    const double delivery_p50 = slo->Find("slo_p50_cycles")->number;
    ASSERT_GT(delivery_samples, 0.0);
    ASSERT_GT(delivery_p50, 0.0);

    // All three components present, each with one sample per delivery.
    const jsonmini::JsonValue* components = slo->Find("components");
    ASSERT_NE(components, nullptr) << BodyOf(delta);
    double p50_sum = 0.0;
    double mean_sum = 0.0;
    for (const char* key : {"queue", "service", "fence"}) {
      const jsonmini::JsonValue* c = components->Find(key);
      ASSERT_NE(c, nullptr) << "missing component " << key;
      EXPECT_EQ(c->Find("samples")->number, delivery_samples) << key;
      p50_sum += c->Find("p50_cycles")->number;
      mean_sum += c->Find("mean_cycles")->number;
    }
    // The resilience events fired inside this window, so the window saw a
    // checkpoint fence and a failover.
    const jsonmini::JsonValue* counters =
        root->Find("delta")->Find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(
        counters->Find("runtime.ckpt_epochs_total")->Find("delta")->number,
        1.0);
    EXPECT_GE(
        counters->Find("runtime.failovers_total")->Find("delta")->number,
        1.0);

    // Mean additivity is exact (integer sums, no bucketization): the three
    // component means must reconstruct the delivery mean to print
    // precision, every window, loaded box or not.
    const jsonmini::JsonValue* hists =
        root->Find("delta")->Find("histograms");
    ASSERT_NE(hists, nullptr);
    const jsonmini::JsonValue* delivery_hist =
        hists->Find("runtime.delivery_latency_cycles");
    ASSERT_NE(delivery_hist, nullptr);
    const double delivery_mean = delivery_hist->Find("mean")->number;
    EXPECT_NEAR(mean_sum, delivery_mean, delivery_mean * 0.001 + 0.1);

    // The gauges satellite: current levels ride the same SLO header.
    ASSERT_NE(slo->Find("gauges"), nullptr) << BodyOf(delta);

    *p50_err_out = std::abs(p50_sum - delivery_p50) / delivery_p50;
  };

  std::string profile;
  double p50_err = 1.0;
  run_window(/*scrape_profile=*/true, &profile, &p50_err);
  for (int retry = 0; retry < 3 && p50_err > 0.10; ++retry) {
    run_window(/*scrape_profile=*/false, nullptr, &p50_err);
  }
  // p50 additivity within 10%: the per-batch identity is exact, so the
  // slack covers the log-linear bucket resolution of the five quantile
  // reads plus residual median-composition error at low utilization.
  EXPECT_LE(p50_err, 0.10) << "p50 decomposition drifted in every window";

  ASSERT_EQ(StatusOf(profile), 200);
  const std::string folded = BodyOf(profile);
  ASSERT_NE(folded.find("# linsys-profile"), std::string::npos) << folded;

  const std::uint64_t samples = ProfileHeaderValue(folded, "samples");
  const std::uint64_t idle = ProfileHeaderValue(folded, "idle");
  EXPECT_GT(samples, 0u) << folded;
  // Tally folded sample lines: named-phase ticks vs idle ticks.
  std::uint64_t named_ticks = 0;
  std::uint64_t idle_ticks = 0;
  std::istringstream fold_in(folded);
  std::string line;
  while (std::getline(fold_in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::uint64_t count =
        std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    if (line.find(";idle") != std::string::npos) {
      idle_ticks += count;
    } else {
      named_ticks += count;
    }
  }
  EXPECT_GT(named_ticks, 0u) << folded;
  // >=90% of non-idle ticks attributed to named phases (the remainder is
  // slot-table overflow, which a 4-phase x few-stage workload never fills).
  const std::uint64_t non_idle = samples - idle;
  ASSERT_GT(non_idle, 0u) << folded;
  EXPECT_GE(static_cast<double>(named_ticks),
            0.9 * static_cast<double>(non_idle))
      << folded;
  EXPECT_EQ(idle_ticks, idle) << folded;

  rt.Shutdown();
}

}  // namespace
}  // namespace obs
