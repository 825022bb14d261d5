// obs_scrape — tiny HTTP/1.0 client for the in-process ops server.
//
// Usage:
//   obs_scrape --unix <socket-path> <endpoint> [options]
//
//   <endpoint> is one of the ops paths: /metrics, /metrics/delta, /trace,
//   /healthz (any absolute path is sent verbatim).
//
// Options:
//   --out FILE         write the response body to FILE instead of stdout
//                      (how CI hands a drained /trace to trace_lint)
//   --require SUBSTR   fail unless the body contains SUBSTR (repeatable);
//                      the CI smoke gate, e.g. --require '"slo"'
//   --quiet            suppress the body on stdout (summary still on stderr)
//
// JSON endpoints (/metrics/delta, /trace, /healthz — anything whose body
// starts with '{') are parsed with tools/json_mini.h and the scrape fails on
// malformed JSON, so this doubles as a wire-format lint: a 200 with a
// truncated body is a bug, not a pass. For /metrics/delta the SLO header
// line (metric, samples, p50/p99/p999) is summarised to stderr.
//
// Exit codes: 0 ok; 1 usage; 2 connect/send failure; 3 HTTP status != 200;
// 4 malformed JSON body; 5 --require substring missing; 6 --out path
// unwritable (the scrape itself succeeded — distinct so CI can tell a dead
// server from a bad artifact directory).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tools/json_mini.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: obs_scrape --unix PATH /endpoint "
               "[--out FILE] [--require SUBSTR]... [--quiet]\n");
  return 1;
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "obs_scrape: socket path too long: %s\n",
                 path.c_str());
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("obs_scrape: socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "obs_scrape: connect(%s): %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Read to EOF — the server speaks HTTP/1.0 with Connection: close, so EOF
// *is* the message boundary.
std::string RecvAll(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

void SummariseDelta(const jsonmini::JsonValue& root) {
  const jsonmini::JsonValue* slo = root.Find("slo");
  if (slo == nullptr || slo->kind != jsonmini::JsonValue::Kind::kObject) {
    std::fprintf(stderr, "obs_scrape: delta scrape has no \"slo\" header\n");
    return;
  }
  const auto* metric = slo->Find("metric");
  const auto* samples = slo->Find("samples");
  const auto* p50 = slo->Find("slo_p50_cycles");
  const auto* p99 = slo->Find("slo_p99_cycles");
  const auto* p999 = slo->Find("slo_p999_cycles");
  std::fprintf(stderr, "obs_scrape: slo %s samples=%.0f p50=%.0f p99=%.0f "
               "p999=%.0f\n",
               metric != nullptr ? metric->string_value.c_str() : "?",
               samples != nullptr ? samples->number : 0.0,
               p50 != nullptr ? p50->number : 0.0,
               p99 != nullptr ? p99->number : 0.0,
               p999 != nullptr ? p999->number : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  std::string endpoint;
  std::string out_file;
  std::vector<std::string> require;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_file = argv[++i];
    } else if (arg == "--require" && i + 1 < argc) {
      require.push_back(argv[++i]);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '/') {
      endpoint = arg;
    } else {
      return Usage();
    }
  }
  if (endpoint.empty() || unix_path.empty()) {
    return Usage();
  }

  const int fd = ConnectUnix(unix_path);
  if (fd < 0) {
    return 2;
  }
  if (!SendAll(fd, "GET " + endpoint + " HTTP/1.0\r\n\r\n")) {
    std::fprintf(stderr, "obs_scrape: send: %s\n", std::strerror(errno));
    ::close(fd);
    return 2;
  }
  const std::string response = RecvAll(fd);
  ::close(fd);

  // Split status line + headers from the body.
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    std::fprintf(stderr, "obs_scrape: short response (%zu bytes)\n",
                 response.size());
    return 2;
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  const std::string body = response.substr(header_end + 4);
  int status = 0;
  if (std::sscanf(status_line.c_str(), "HTTP/%*s %d", &status) != 1 ||
      status != 200) {
    std::fprintf(stderr, "obs_scrape: %s %s\n", endpoint.c_str(),
                 status_line.c_str());
    return 3;
  }

  if (!body.empty() && body[0] == '{') {
    jsonmini::JsonParser parser(body);
    std::string error;
    const jsonmini::JsonPtr root = parser.Parse(&error);
    if (root == nullptr) {
      std::fprintf(stderr, "obs_scrape: %s returned malformed JSON: %s\n",
                   endpoint.c_str(), error.c_str());
      return 4;
    }
    if (endpoint.rfind("/metrics/delta", 0) == 0) {
      SummariseDelta(*root);
    }
  }
  for (const auto& needle : require) {
    if (body.find(needle) == std::string::npos) {
      std::fprintf(stderr, "obs_scrape: body missing required \"%s\"\n",
                   needle.c_str());
      return 5;
    }
  }

  if (!out_file.empty()) {
    // Exit 6, not 2: by this point the scrape succeeded, so a failure here
    // is a local filesystem problem, not a server problem.
    std::ofstream out(out_file, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "obs_scrape: cannot open %s for writing\n",
                   out_file.c_str());
      return 6;
    }
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::fprintf(stderr, "obs_scrape: cannot write %s\n", out_file.c_str());
      return 6;
    }
  } else if (!quiet) {
    std::fwrite(body.data(), 1, body.size(), stdout);
  }
  std::fprintf(stderr, "obs_scrape: %s 200 (%zu bytes)\n", endpoint.c_str(),
               body.size());
  return 0;
}
