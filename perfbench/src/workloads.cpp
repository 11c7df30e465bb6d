// Request generation for the four workloads. Everything here runs before
// the first timer starts, and the same seed always yields the same requests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "attack/catalog.h"
#include "attack/evasion.h"
#include "attack/exploit.h"
#include "attack/payload_gen.h"
#include "attack/workload.h"
#include "bench.h"
#include "gateway/client.h"
#include "nti/nti.h"

namespace perfbench {

namespace jattack = joza::attack;
namespace jhttp = joza::http;

namespace {

// Requests per pass. Fixed, so every round does the same work however fast
// the code under test is (writes grow the tables later reads scan).
struct PassSizes {
  std::size_t warmup;
  std::size_t inproc;
  std::size_t wire;
};

PassSizes SizesFor(Workload w) {
  switch (w) {
    case Workload::kWpRead: return {400, 1500, 4800};
    case Workload::kWpWrite: return {200, 1500, 4800};
    case Workload::kSqlmapScan: return {400, 1500, 4800};
    // The in-process pass size sets the promotion share (see kHotTenants).
    case Workload::kTenantZipf: return {400, 1200, 4800};
  }
  return {0, 0, 0};
}

// Share of labeled catalog exploits mixed into the benign workloads.
constexpr double kCatalogAttackShare = 0.02;
// Share of sqlmap_scan requests replaced by generated attack variants.
constexpr double kScanAttackShare = 0.20;
constexpr double kZipfSkew = 1.2;

jhttp::Request AttackRequest(const jattack::PluginSpec& plugin,
                             const std::string& payload) {
  jhttp::Request r;
  r.method = "GET";
  r.path = plugin.route;
  r.get_params = jattack::InputsFor(plugin, payload);
  return r;
}

void AddExploit(const jattack::PluginSpec& plugin,
                const jattack::Exploit& exploit,
                std::vector<jhttp::Request>* pool) {
  pool->push_back(AttackRequest(plugin, exploit.payload));
  if (exploit.is_probe_pair) {
    pool->push_back(AttackRequest(plugin, exploit.false_payload));
  }
}

// The harvested exploit of every testbed plugin (both probes of a pair).
std::vector<jhttp::Request> CatalogAttacks() {
  std::vector<jhttp::Request> pool;
  for (const jattack::PluginSpec* plugin : jattack::TestbedPlugins()) {
    AddExploit(*plugin, jattack::OriginalExploit(*plugin), &pool);
  }
  return pool;
}

// sqlmap-style variants over every testbed plugin plus their NTI-evasion
// mutants: each one a query structure no cache has seen.
std::vector<jhttp::Request> ScanAttacks(std::uint64_t seed) {
  std::vector<jhttp::Request> pool;
  const joza::nti::NtiConfig nti_config;
  std::uint64_t salt = 0;
  for (const jattack::PluginSpec* plugin : jattack::TestbedPlugins()) {
    for (const jattack::Exploit& variant :
         jattack::GenerateSqlmapPayloads(*plugin, 6, seed * 131 + ++salt)) {
      AddExploit(*plugin, variant, &pool);
      const jattack::NtiMutation mutant =
          jattack::MutateForNtiEvasion(*plugin, variant, nti_config);
      if (mutant.possible) AddExploit(*plugin, mutant.exploit, &pool);
    }
  }
  return pool;
}

std::vector<double> ZipfCdf() {
  std::vector<double> cdf(kTenants);
  double sum = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfSkew);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

// One pass: the wp.com-shaped benign mix with `attack_share` of it replaced
// by draws from `attacks` (shuffled, cycled). The number of attacks is
// exact, only their places are drawn: attacks are the costliest requests of
// the benign workloads, so the gate's p99 sits among them, and with a drawn
// count it moved by a third from one seed to the next.
std::vector<LabeledRequest> MakePass(Workload w, std::size_t count,
                                     std::uint64_t seed) {
  const double write_fraction =
      w == Workload::kWpWrite ? 0.5 : jattack::WpComWriteFraction();
  const double attack_share =
      w == Workload::kSqlmapScan ? kScanAttackShare : kCatalogAttackShare;
  std::vector<jhttp::Request> attacks =
      w == Workload::kSqlmapScan ? ScanAttacks(seed) : CatalogAttacks();

  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::shuffle(attacks.begin(), attacks.end(), rng);
  std::vector<char> is_attack(count, 0);
  std::fill_n(is_attack.begin(),
              std::lround(attack_share * static_cast<double>(count)), 1);
  std::shuffle(is_attack.begin(), is_attack.end(), rng);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const std::vector<double> cdf = ZipfCdf();

  std::vector<LabeledRequest> out;
  out.reserve(count);
  std::size_t next_attack = 0;
  for (jattack::WorkloadRequest& wr :
       jattack::MakeMixedWorkload(count, write_fraction, seed)) {
    LabeledRequest lr;
    if (is_attack[out.size()]) {
      lr.request = attacks[next_attack++ % attacks.size()];
      lr.request.WithCookie("wp_session", std::to_string(rng() % 1000000));
      lr.attack = true;
    } else {
      lr.request = std::move(wr.request);
    }
    if (w == Workload::kTenantZipf) {
      const double u = uniform(rng);
      const std::size_t t = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      lr.tenant = TenantName(std::min(t, kTenants - 1));
      lr.request.WithHeader("X-Joza-Tenant", lr.tenant);
    }
    lr.raw = joza::gateway::SerializeRequest(lr.request, /*keep_alive=*/true);
    out.push_back(std::move(lr));
  }
  return out;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWpRead: return "wp_read";
    case Workload::kWpWrite: return "wp_write";
    case Workload::kSqlmapScan: return "sqlmap_scan";
    case Workload::kTenantZipf: return "tenant_zipf";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kWpRead, Workload::kWpWrite,
                     Workload::kSqlmapScan, Workload::kTenantZipf}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string TenantName(std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02zu", index);
  return buf;
}

WorkloadInputs MakeInputs(Workload w, std::uint64_t seed) {
  const PassSizes sizes = SizesFor(w);
  // Distinct sub-seeds: the timed passes never replay the warm-up requests.
  WorkloadInputs in;
  in.warmup = MakePass(w, sizes.warmup, seed * 4 + 1);
  in.inproc = MakePass(w, sizes.inproc, seed * 4 + 2);
  in.wire = MakePass(w, sizes.wire, seed * 4 + 3);
  return in;
}

bool ResponseCorrect(bool attack, int status, std::string_view body) {
  if (attack) {
    return status == 500 && body.empty() &&
           body.find(jattack::kSecretMarker) == std::string_view::npos;
  }
  return status == 200;
}

}  // namespace perfbench
