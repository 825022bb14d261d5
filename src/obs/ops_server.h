// obs:: ops server — a minimal, dependency-free HTTP/1.0 endpoint inside a
// live process, so a running service is observable without stopping it.
//
// Everything obs:: collects was, until now, export-at-exit: the bench
// harness scrapes the registry and dumps the tracer after Shutdown. The ops
// server turns the same data into a live surface — point obs_scrape (or
// curl --unix-socket) at a running fault_storm and watch faults,
// quarantines, checkpoint epochs, and the SLO latency histogram move while
// the mechanisms fire.
//
// Endpoints (GET only, HTTP/1.0, Connection: close):
//
//   /metrics        Prometheus text exposition of the primary registry
//                   (plus the process-global registry when distinct).
//   /metrics/delta  JSON interval scrape: advances the registry's
//                   SnapshotDelta baseline and wraps it with an "slo"
//                   summary (p50/p99/p99.9 of the configured SLO histogram
//                   *this interval*) so one poll answers "what did clients
//                   experience since I last asked".
//   /trace          Live chrome://tracing JSON drain of the tracer rings
//                   (Tracer::DrainChromeJson — workers keep running).
//   /profile        Opens a sampling-profiler window (?ms=N window length,
//                   ?us=P sample period), blocks the serving thread for the
//                   window, and returns folded-stack text
//                   (thread;phase[;stage] count) ready for flamegraph.pl.
//                   Workers keep running; only the scrape connection waits.
//   /healthz        Runtime lifecycle JSON from the owner's health callback.
//
// Transport is a unix domain socket (no port management, file permissions
// as ACL). The server is one thread, serving connections serially —
// scrapes are checkpoint-scale events (milliseconds, mutex + allocation),
// not packet work, and a serial loop keeps the server trivially correct;
// concurrent clients queue on the listen backlog. Malformed, oversized, or
// stalled requests get a 4xx and a closed connection, never a crash — the
// server must survive anything a debugging human types at it.
//
// Layering: obs:: stays at the bottom of the stack — this file uses POSIX
// sockets and obs:: only. The runtime (or an example) owns the server,
// passes its registry/tracer and a health callback, and brackets it with
// Start()/Stop() (Stop joins the thread; safe to call twice).
#ifndef LINSYS_SRC_OBS_OPS_SERVER_H_
#define LINSYS_SRC_OBS_OPS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace obs {

class Profiler;

struct OpsServerConfig {
  // Unix-domain socket path; unlinked and re-bound on Start, unlinked again
  // on Stop. Start refuses an empty path.
  std::string unix_path;
  // Histogram whose per-interval quantiles become the "slo" summary in
  // /metrics/delta responses.
  std::string slo_metric = "runtime.delivery_latency_cycles";
};

class OpsServer {
 public:
  struct Hooks {
    Registry* registry = nullptr;         // primary scrape source (required)
    Registry* global_registry = nullptr;  // merged into /metrics if distinct
    Tracer* tracer = nullptr;             // /trace source (optional)
    Profiler* profiler = nullptr;         // /profile source (optional)
    std::function<std::string()> healthz;  // /healthz JSON body (optional)
  };

  // Requests larger than this (headers included) get 431 and a close.
  static constexpr std::size_t kMaxRequestBytes = 4096;

  OpsServer(OpsServerConfig config, Hooks hooks);
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  // Binds the socket and spawns the serving thread. Returns false (with
  // *error set) on bind/listen failure; the process keeps running — an
  // unobservable service beats a dead one.
  bool Start(std::string* error);

  // Closes the socket and joins the thread. Idempotent; called from the
  // destructor as a backstop.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Total requests served (any status), for tests and idle-cost checks.
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_acquire);
  }

 private:
  void Serve();
  void HandleConnection(int fd);
  // Builds the response body + content type for `path` (`query` is the raw
  // text after '?', empty when absent); returns the HTTP status code.
  int Dispatch(const std::string& path, const std::string& query,
               std::string* body, std::string* content_type);
  std::string MetricsDeltaBody();

  OpsServerConfig config_;
  Hooks hooks_;
  int unix_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace obs

#endif  // LINSYS_SRC_OBS_OPS_SERVER_H_
