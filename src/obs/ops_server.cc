#include "src/obs/ops_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/obs/profiler.h"

namespace obs {

namespace {

// Reads stalling longer than this get the connection dropped.
constexpr int kRecvTimeoutMs = 2000;

// Blocking full write with EINTR retry; MSG_NOSIGNAL so a client that hung
// up mid-response costs us an EPIPE, not a process-wide SIGPIPE.
bool SendAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Error";
  }
}

void WriteResponse(int fd, int status, const std::string& content_type,
                   const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + " " +
                     ReasonPhrase(status) + "\r\nContent-Type: " +
                     content_type + "\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (SendAll(fd, head.data(), head.size())) {
    SendAll(fd, body.data(), body.size());
  }
}

std::string Num3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Pulls `key=value` out of a raw query string ("a=1&b=2"); returns `fallback`
// when the key is absent or the value fails to parse as a non-negative
// integer. Tolerant by design — this parses what a debugging human types.
std::uint64_t QueryUint(const std::string& query, const std::string& key,
                        std::uint64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) {
      end = query.size();
    }
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      const std::string value = query.substr(eq + 1, end - eq - 1);
      if (!value.empty() &&
          value.find_first_not_of("0123456789") == std::string::npos) {
        return std::strtoull(value.c_str(), nullptr, 10);
      }
      return fallback;
    }
    pos = end + 1;
  }
  return fallback;
}

}  // namespace

OpsServer::OpsServer(OpsServerConfig config, Hooks hooks)
    : config_(std::move(config)), hooks_(hooks) {}

OpsServer::~OpsServer() { Stop(); }

bool OpsServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    return true;
  }
  if (hooks_.registry == nullptr) {
    if (error != nullptr) {
      *error = "ops server needs a registry";
    }
    return false;
  }
  if (config_.unix_path.empty()) {
    if (error != nullptr) {
      *error = "ops server needs a unix socket path";
    }
    return false;
  }

  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    Stop();
    return false;
  };

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "unix socket path too long: " + config_.unix_path;
    }
    return false;
  }
  std::memcpy(addr.sun_path, config_.unix_path.c_str(),
              config_.unix_path.size() + 1);
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) {
    return fail("socket(AF_UNIX)");
  }
  ::unlink(config_.unix_path.c_str());  // stale socket from a dead run
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind(" + config_.unix_path + ")");
  }
  if (::listen(unix_fd_, 16) != 0) {
    return fail("listen(" + config_.unix_path + ")");
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void OpsServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  running_.store(false, std::memory_order_release);
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(config_.unix_path.c_str());
  }
}

void OpsServer::Serve() {
  // Poll-with-timeout accept loop: closing fds out from under a blocked
  // accept() is not a reliable wakeup on Linux, so the stop path just flips
  // stop_ and the loop notices within one poll interval.
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{unix_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;  // timeout or EINTR: re-check stop_
    }
    const int conn = ::accept(unix_fd_, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void OpsServer::HandleConnection(int fd) {
  timeval tv{};
  tv.tv_sec = kRecvTimeoutMs / 1000;
  tv.tv_usec = (kRecvTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Read until the header terminator. GETs have no body, so the terminator
  // is the end of the request; anything bigger than the cap is rejected
  // without reading further.
  std::string req;
  char buf[1024];
  bool complete = false;
  while (req.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;  // EOF, timeout, or error: work with what we have
    }
    req.append(buf, static_cast<std::size_t>(n));
    if (req.find("\r\n\r\n") != std::string::npos ||
        req.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  requests_.fetch_add(1, std::memory_order_acq_rel);

  if (!complete && req.size() >= kMaxRequestBytes) {
    WriteResponse(fd, 431, "text/plain", "request too large\n");
    return;
  }
  // Request line: METHOD SP target SP version. Tolerate a bare "GET /path"
  // with no version (what a human types into nc), reject anything that
  // does not even have a method + target.
  const std::size_t eol = req.find_first_of("\r\n");
  const std::string line = req.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) {
    WriteResponse(fd, 400, "text/plain", "malformed request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    sp2 = line.size();
  }
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteResponse(fd, 405, "text/plain", "GET only\n");
    return;
  }
  if (target.empty() || target[0] != '/') {
    WriteResponse(fd, 400, "text/plain", "malformed target\n");
    return;
  }
  // Split target into path + query: /profile?ms=200 parameterizes the
  // handler; paths that ignore queries (e.g. /healthz?probe=1) still match.
  std::string query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    query = target.substr(qpos + 1);
    target.resize(qpos);
  }

  std::string body;
  std::string content_type = "text/plain";
  const int status = Dispatch(target, query, &body, &content_type);
  WriteResponse(fd, status, content_type, body);
}

int OpsServer::Dispatch(const std::string& path, const std::string& query,
                        std::string* body, std::string* content_type) {
  if (path == "/metrics") {
    *content_type = "text/plain; version=0.0.4";
    *body = hooks_.registry->Scrape().ToPrometheus();
    if (hooks_.global_registry != nullptr &&
        hooks_.global_registry != hooks_.registry) {
      *body += hooks_.global_registry->Scrape().ToPrometheus();
    }
    return 200;
  }
  if (path == "/metrics/delta") {
    *content_type = "application/json";
    *body = MetricsDeltaBody();
    return 200;
  }
  if (path == "/trace") {
    if (hooks_.tracer == nullptr) {
      *body = "no tracer attached\n";
      return 404;
    }
    *content_type = "application/json";
    *body = hooks_.tracer->DrainChromeJson();
    return 200;
  }
  if (path == "/profile") {
    if (hooks_.profiler == nullptr) {
      *body = "no profiler attached\n";
      return 404;
    }
    // Window length and sample period are clamped, not rejected: the client
    // is a human with curl, and a typo should cost them a short window, not
    // a 400. The serving thread sleeps through the window — the server is
    // serial by design, so concurrent scrapes queue on the listen backlog
    // exactly like a slow /trace drain.
    std::uint64_t ms = QueryUint(query, "ms", 500);
    if (ms < 10) {
      ms = 10;
    }
    if (ms > 10000) {
      ms = 10000;
    }
    std::uint64_t us = QueryUint(query, "us", 250);
    if (us > 1000000) {
      us = 1000000;
    }
    std::string error;
    if (!hooks_.profiler->StartWindow(static_cast<std::uint32_t>(us),
                                      &error)) {
      *body = "profiler window failed: " + error + "\n";
      return 400;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    *body = hooks_.profiler->StopWindowFolded();
    return 200;
  }
  if (path == "/healthz") {
    *content_type = "application/json";
    *body = hooks_.healthz ? hooks_.healthz() : "{\"status\":\"ok\"}";
    return 200;
  }
  *body = "unknown path: " + path + "\n";
  return 404;
}

std::string OpsServer::MetricsDeltaBody() {
  const DeltaSnapshot d = hooks_.registry->SnapshotDelta();
  // The SLO header pulls the configured latency histogram's *interval*
  // quantiles to the top so a scraper can alert on slo_p99_cycles without
  // digging through the full delta (which still follows, for correlation
  // with ckpt_epochs/failovers deltas in the same window).
  std::string out = "{\"slo\":{\"metric\":\"" + config_.slo_metric + "\"";
  const HistogramSnapshot* slo = nullptr;
  for (const auto& h : d.histograms) {
    if (h.name == config_.slo_metric) {
      slo = &h.delta;
      break;
    }
  }
  if (slo != nullptr) {
    out += ",\"samples\":" + std::to_string(slo->count) +
           ",\"slo_p50_cycles\":" + Num3(slo->Percentile(50)) +
           ",\"slo_p99_cycles\":" + Num3(slo->Percentile(99)) +
           ",\"slo_p999_cycles\":" + Num3(slo->Percentile(99.9));
  } else {
    out += ",\"samples\":0";
  }
  // Delivery-latency decomposition: the three additive components the runtime
  // records per batch (queue+service+fence == delivery, exactly, by
  // construction). Quantiles are per-component, so p50s sum to roughly the
  // delivery p50 (bucketization error only); means sum exactly. A scraper
  // reads this header and knows *where* the p99 went without a second poll.
  static const struct {
    const char* key;
    const char* metric;
  } kComponents[] = {
      {"queue", "runtime.latency_queue_cycles"},
      {"service", "runtime.latency_service_cycles"},
      {"fence", "runtime.latency_fence_cycles"},
  };
  std::string components;
  for (const auto& c : kComponents) {
    for (const auto& h : d.histograms) {
      if (h.name != c.metric) {
        continue;
      }
      if (!components.empty()) {
        components += ",";
      }
      components += std::string("\"") + c.key + "\":{\"samples\":" +
                    std::to_string(h.delta.count) +
                    ",\"mean_cycles\":" + Num3(h.delta.Mean()) +
                    ",\"p50_cycles\":" + Num3(h.delta.Percentile(50)) +
                    ",\"p99_cycles\":" + Num3(h.delta.Percentile(99)) + "}";
      break;
    }
  }
  if (!components.empty()) {
    out += ",\"components\":{" + components + "}";
  }
  // Gauge levels (ring depth, stalled workers, mempool...) ride in the header
  // too: they are the "what is the system doing right now" complement to the
  // interval quantiles, and a delta-only scraper would otherwise miss them.
  if (!d.gauges.empty()) {
    out += ",\"gauges\":{";
    bool first = true;
    for (const auto& g : d.gauges) {
      if (!first) {
        out += ",";
      }
      first = false;
      const std::string v = std::to_string(g.value);
      out += "\"" + g.name + "\":{\"sum\":" + v + ",\"max\":" + v + "}";
    }
    out += "}";
  }
  out += "},\"delta\":" + d.ToJson() + "}";
  return out;
}

}  // namespace obs
