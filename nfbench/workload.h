// Seeded inputs of the three workloads. Only this file sees the seed: the
// runtime and the checkpoint library receive the flows, rules and tries
// built here, nothing else.
#ifndef NFBENCH_WORKLOAD_H_
#define NFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "nfbench_lib.h"
#include "src/ckpt/trie.h"
#include "src/net/headers.h"
#include "src/net/operators/firewall.h"
#include "src/util/rng.h"

namespace nfbench {

inline constexpr std::size_t kBurst = 32;             // descriptors per Dispatch
inline constexpr std::uint32_t kVip = 0xc0a80001u;    // 192.168.0.1
inline constexpr std::uint32_t kNatIp = 0xcb007101u;  // 203.0.113.1
inline constexpr std::size_t kBackends = 16;
inline constexpr std::size_t kMaglevSlots = 65537;
inline constexpr std::size_t kDraws = std::size_t{1} << 20;  // descriptor pool

inline constexpr std::uint16_t kServicePorts[16] = {
    53, 80, 123, 443, 500, 993, 1194, 1812,
    3478, 4500, 5060, 5353, 8080, 8443, 9000, 51820};

inline std::uint32_t BackendIp(std::size_t i) {
  return 0xac100001u + static_cast<std::uint32_t>(i);  // 172.16.0.1 + i
}

inline std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kBackends; ++i) {
    names.push_back("be" + std::to_string(i));
  }
  return names;
}

// Distinct UDP flows from clients in 10.0.0.0/8 to the VIP.
inline std::vector<net::FiveTuple> MakeFlows(std::size_t n, util::Rng& rng) {
  std::vector<net::FiveTuple> flows;
  std::unordered_set<std::uint64_t> seen;
  flows.reserve(n);
  while (flows.size() < n) {
    net::FiveTuple t;
    t.src_ip = 0x0a000000u | (rng.NextU32() & 0x00ffffffu);
    t.src_port = static_cast<std::uint16_t>(1024 + rng.Below(64512));
    t.dst_ip = kVip;
    t.dst_port = kServicePorts[rng.Below(16)];
    t.proto = net::Ipv4Hdr::kProtoUdp;
    if (seen.insert(t.Hash()).second) {
      flows.push_back(t);
    }
  }
  return flows;
}

// The firewall's first-match list: 28 allow rules on /16 client prefixes
// and 4 deny rules, each a /12 client prefix on two adjacent service ports
// (about 1/128 of the flows each). Default allow.
struct Rule {
  std::uint32_t prefix = 0;
  std::uint8_t len = 0;
  std::uint16_t port_lo = 0;
  std::uint16_t port_hi = 0xffff;
  bool allow = true;
};

inline std::vector<Rule> MakeRules(util::Rng& rng) {
  std::vector<Rule> rules;
  for (int i = 0; i < 32; ++i) {
    Rule r;
    if (i % 8 == 5) {
      const std::size_t j = rng.Below(15);
      r.prefix = 0x0a000000u | (rng.NextU32() & 0x00f00000u);
      r.len = 12;
      r.port_lo = kServicePorts[j];
      r.port_hi = kServicePorts[j + 1];
      r.allow = false;
    } else {
      r.prefix = 0x0a000000u | (rng.NextU32() & 0x00ff0000u);
      r.len = 16;
    }
    rules.push_back(r);
  }
  return rules;
}

// The benchmark's own rule evaluation, written apart from the firewall
// operator so that the two can disagree.
inline bool Denied(const std::vector<Rule>& rules, const net::FiveTuple& t) {
  for (const Rule& r : rules) {
    const std::uint32_t mask = r.len == 0 ? 0 : ~std::uint32_t{0} << (32 - r.len);
    if ((t.src_ip & mask) == (r.prefix & mask) && t.dst_port >= r.port_lo &&
        t.dst_port <= r.port_hi) {
      return !r.allow;
    }
  }
  return false;
}

inline std::vector<net::FirewallRule> ToFirewall(const std::vector<Rule>& rules) {
  std::vector<net::FirewallRule> out;
  for (const Rule& r : rules) {
    net::FirewallRule f;
    f.src_prefix = r.prefix;
    f.src_prefix_len = r.len;
    f.dst_port_lo = r.port_lo;
    f.dst_port_hi = r.port_hi;
    f.allow = r.allow;
    out.push_back(f);
  }
  return out;
}

// A seeded permutation of 0..n-1.
inline std::vector<std::uint32_t> Permutation(std::size_t n, util::Rng& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.Below(i)]);
  }
  return p;
}

inline std::vector<std::uint32_t> UniformDraws(std::size_t flows, util::Rng& rng) {
  std::vector<std::uint32_t> d(kDraws);
  for (auto& x : d) {
    x = static_cast<std::uint32_t>(rng.Below(flows));
  }
  return d;
}

// Draws from Zipf(s): rank r (0-based) has weight 1 / (r + 1)^s and is
// flow rank_flow[r].
inline std::vector<std::uint32_t> ZipfDraws(const std::vector<std::uint32_t>& rank_flow,
                                            double s, util::Rng& rng) {
  std::vector<double> cdf(rank_flow.size());
  double acc = 0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  std::vector<std::uint32_t> d(kDraws);
  for (auto& x : d) {
    const double u = rng.NextDouble() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    x = rank_flow[std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                        rank_flow.size() - 1)];
  }
  return d;
}

// Figure 3: `rules` firewall rules, each bound under `aliases` distinct
// random /24 source prefixes.
inline ckpt::RuleTrie MakeTrie(std::size_t rules, std::size_t aliases,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  ckpt::RuleTrie trie;
  std::unordered_set<std::uint32_t> used;
  for (std::size_t r = 0; r < rules; ++r) {
    ckpt::FwRule rule;
    rule.id = r;
    rule.allow = rng.Chance(0.5);
    rule.dst_port_lo = static_cast<std::uint16_t>(rng.Below(1000));
    rule.dst_port_hi = static_cast<std::uint16_t>(rule.dst_port_lo + rng.Below(1000));
    ckpt::RulePtr shared = ckpt::RulePtr::Make(rule);
    for (std::size_t a = 0; a < aliases;) {
      const std::uint32_t prefix = rng.NextU32() & 0xffffff00u;
      if (used.insert(prefix).second) {
        trie.Insert(prefix, 24, shared);
        ++a;
      }
    }
  }
  return trie;
}

}  // namespace nfbench

#endif  // NFBENCH_WORKLOAD_H_
