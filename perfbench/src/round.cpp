// One measured round: build fresh state, warm it, then time an in-process
// pass and a wire pass over pre-generated requests, checking every response
// against its ground-truth label.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <thread>

#include "attack/catalog.h"
#include "bench.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ipc/daemon_pool.h"
#include "phpsrc/fragments.h"
#include "tenant/fleet.h"
#include "webapp/application.h"

namespace perfbench {

namespace jcore = joza::core;
namespace jhttp = joza::http;
namespace jwebapp = joza::webapp;

namespace {

// The gateway CLI's verdict-cache bound.
constexpr std::size_t kCacheCapacity = 1 << 16;
// Closed-loop wire clients, one per event shard. The whole run is held on
// one CPU (see PinToOneCpu in main.cpp), so a request wakes its shard, and a
// response its client, on the CPU that is already running.
constexpr std::size_t kClients = 2;
constexpr std::size_t kEventShards = 2;
// Wire warm-up requests per client, sent before the timed wire pass.
constexpr std::size_t kWireWarmup = 32;
// Request ids of wire spans start here, so they never collide with the
// in-process request ids (which the replay spans share).
constexpr std::uint64_t kWireRequestBase = 1u << 24;
// tenant_zipf: the Zipf head that stays hot, and the tenants ranked next
// to it. Before the in-process pass those next tenants are demoted to the
// round's fresh cold store, so their first request in the pass promotes
// them (mmap parse and automaton rebuild) on the request path: about 2.3%
// of that pass, well clear of its p99 rank. They are frequent enough that
// every one of them is requested in every pass. The wire pass finds every
// tenant hot again; it measures routed serving.
// The demotions run before the pass, once per tenant per round: writing a
// first cold image is cheap, but freeing one (replacing it, or deleting the
// store) took 25 to 80 ms per file on a disk mounted with online discard. A
// budget that demotes on the request path replaces images there, which made
// every timed metric follow the disk. Freeing the images is still most of
// a round, so a round demotes only as many tenants as its p99 needs: promotion
// time follows bursts of host load, and the lower quartile over rounds
// (see Summarize) needs rounds enough to find quiet ones.
constexpr std::size_t kHotTenants = kTenants / 8;
constexpr std::size_t kDemotedTenants = 28;

jcore::JozaConfig EngineConfig() {
  jcore::JozaConfig config;
  config.cache_capacity = kCacheCapacity;
  return config;
}

std::unique_ptr<joza::tenant::Fleet> MakeFleet(
    const jwebapp::Application& app, const std::string& cold_dir,
    std::vector<std::string>* errors) {
  const joza::php::FragmentSet base =
      joza::php::FragmentSet::FromSources(app.sources());
  std::vector<joza::php::FragmentSet> seeds(kTenants, base);
  for (std::size_t i = 0; i < kTenants; ++i) {
    seeds[i].AddRaw("SELECT marker_" + TenantName(i) + " FROM posts",
                    "tenant/" + TenantName(i) + ".php");
  }
  joza::tenant::FleetOptions options;
  options.engine = EngineConfig();
  // No memory budget, so no promotion ever waits for a demotion (see
  // kHotTenants); the cold store still backs the explicit demotions.
  options.cold_dir = cold_dir;
  auto fleet = std::make_unique<joza::tenant::Fleet>(options);
  for (std::size_t i = 0; i < kTenants; ++i) {
    const joza::Status st = fleet->AddTenant(TenantName(i), seeds[i]);
    if (!st.ok()) errors->push_back("add tenant: " + st.ToString());
  }
  return fleet;
}

// Demotes the tenants ranked next to the Zipf head; returns the failures.
std::size_t DemoteNextTenants(joza::tenant::Fleet& fleet) {
  std::size_t failures = 0;
  for (std::size_t t = kHotTenants; t < kHotTenants + kDemotedTenants; ++t) {
    if (!fleet.Demote(TenantName(t)).ok()) ++failures;
  }
  return failures;
}

// Forks both daemons during set-up so no spawn lands in a timed pass.
void PrespawnDaemons(joza::ipc::DaemonPool& pool, std::size_t count) {
  for (int attempt = 0; attempt < 20 && pool.live() < count; ++attempt) {
    std::vector<std::thread> pingers;
    for (std::size_t i = 0; i < count; ++i) {
      pingers.emplace_back([&pool] { (void)pool.Ping(); });
    }
    for (std::thread& t : pingers) t.join();
  }
}

// Times the PTI daemon round trips of the traced in-process pass.
struct IpcProbe {
  std::atomic<bool> active{false};
  Tracer* tracer = nullptr;
  std::uint64_t request = 0;
  std::uint32_t parent = 0;
  std::vector<double> call_us;
};

jcore::PtiFn ProbedBackend(jcore::PtiFn inner, IpcProbe* probe) {
  return [inner = std::move(inner), probe](
             std::string_view query,
             const std::vector<joza::sql::Token>& tokens,
             joza::util::Deadline deadline) {
    if (!probe->active.load(std::memory_order_relaxed)) {
      return inner(query, tokens, deadline);
    }
    const std::uint32_t span =
        probe->tracer->Begin("ipc.pti_call", probe->request, probe->parent);
    auto result = inner(query, tokens, deadline);
    probe->tracer->End(span);
    const Span& s = probe->tracer->spans()[span - 1];
    probe->call_us.push_back((s.end_ns - s.start_ns) / 1e3);
    return result;
  };
}

bool ParseResponse(std::string_view raw, int* status, std::string_view* body) {
  const std::size_t sp = raw.find(' ');
  const std::size_t end = raw.find("\r\n\r\n");
  if (sp == std::string_view::npos || end == std::string_view::npos) {
    return false;
  }
  *status = std::atoi(raw.data() + sp + 1);
  *body = raw.substr(end + 4);
  return true;
}

// Outcome bookkeeping shared by both passes.
struct Outcomes {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t attacks_sent = 0;
  std::size_t false_positives = 0;
  std::size_t missed_attacks = 0;

  // `delivered` is false for transport errors and refused pins.
  void Record(bool attack, bool delivered, int status, std::string_view body) {
    ++attempted;
    if (attack) ++attacks_sent;
    if (delivered && ResponseCorrect(attack, status, body)) return;
    ++failed;
    if (!delivered) return;
    if (attack) {
      ++missed_attacks;
    } else {
      ++false_positives;
    }
  }
  void Add(const Outcomes& o) {
    attempted += o.attempted;
    failed += o.failed;
    attacks_sent += o.attacks_sent;
    false_positives += o.false_positives;
    missed_attacks += o.missed_attacks;
  }
};

// Round-trips one request and judges the reply against its label; the
// outcome is recorded into `out` when it is set.
bool Exchange(joza::gateway::KeepAliveClient& client, const LabeledRequest& lr,
              Outcomes* out) {
  auto raw = client.RoundTrip(lr.raw);
  int status = 0;
  std::string_view body;
  const bool delivered = raw.ok() && ParseResponse(raw.value(), &status, &body);
  if (out != nullptr) out->Record(lr.attack, delivered, status, body);
  return delivered && ResponseCorrect(lr.attack, status, body);
}

}  // namespace

RoundResult RunRound(const WorkloadInputs& in, const RoundOptions& opt) {
  RoundResult r;
  const bool tenants = opt.workload == Workload::kTenantZipf;
  const bool daemons = opt.workload == Workload::kSqlmapScan;
  Tracer& tracer = r.tracer;
  IpcProbe ipc;
  ipc.tracer = &tracer;

  // --- set-up: testbed, engine or fleet, daemon pool, gateway -------------
  const std::int64_t setup_start = NowNs();
  auto app = joza::attack::MakeTestbed();
  std::unique_ptr<joza::ipc::DaemonPool> pool;  // outlives the engine
  std::unique_ptr<jcore::Joza> engine;
  std::unique_ptr<joza::tenant::Fleet> fleet;
  std::string cold_dir;
  if (opt.protect && tenants) {
    cold_dir = opt.scratch_dir + "/cold_" + std::to_string(opt.index);
    std::error_code ec;
    std::filesystem::remove_all(cold_dir, ec);
    std::filesystem::create_directories(cold_dir, ec);
    fleet = MakeFleet(*app, cold_dir, &r.errors);
  } else if (opt.protect) {
    engine = std::make_unique<jcore::Joza>(
        jcore::Joza::Install(*app, EngineConfig()));
    if (daemons) {
      joza::ipc::DaemonPool::Options pool_options;
      pool_options.min_size = 2;
      pool_options.max_size = 2;
      pool = std::make_unique<joza::ipc::DaemonPool>(
          joza::php::FragmentSet::FromSources(app->sources()), pool_options);
      PrespawnDaemons(*pool, pool_options.max_size);
      jcore::PtiFn backend = pool->AsPtiBackend();
      if (opt.trace) backend = ProbedBackend(std::move(backend), &ipc);
      engine->SetPtiBackend(std::move(backend));
    }
  }
  joza::gateway::GatewayConfig gateway_config;
  gateway_config.workers = kEventShards;
  gateway_config.event_shards = kEventShards;
  gateway_config.io_model = joza::gateway::GatewayConfig::IoModel::kEpoll;
  auto factory = [] { return joza::attack::MakeTestbed(); };
  auto server =
      fleet ? std::make_unique<joza::gateway::GatewayServer>(
                  factory, fleet.get(), gateway_config)
            : std::make_unique<joza::gateway::GatewayServer>(
                  factory, engine.get(), gateway_config);
  const auto port = server->Start();
  r.setup_s = (NowNs() - setup_start) / 1e9;
  if (!port.ok()) {
    r.errors.push_back("gateway start: " + port.status().ToString());
    return r;
  }

  // --- the in-process gate: MakeGate() behind a timer ---------------------
  jcore::Joza* current = engine.get();  // per request under the fleet
  jwebapp::QueryGate inner;
  if (engine) inner = engine->MakeGate();
  std::int64_t request_gate_ns = 0;
  std::size_t checks = 0;
  std::uint64_t request_id = 0;
  std::uint32_t handle_span = 0;
  bool capture = false;
  std::vector<CapturedCheck> captured;
  auto timed_gate = [&](std::string_view sql, const jhttp::Request& request) {
    if (!capture) {
      const std::int64_t begin = NowNs();
      jwebapp::GateDecision decision = inner(sql, request);
      request_gate_ns += NowNs() - begin;
      ++checks;
      return decision;
    }
    const jcore::JozaStats before = current->stats();
    const std::uint32_t span = tracer.Begin("core.check", request_id,
                                            handle_span);
    ipc.request = request_id;
    ipc.parent = span;
    jwebapp::GateDecision decision = inner(sql, request);
    tracer.End(span);
    const Span& s = tracer.spans()[span - 1];
    request_gate_ns += s.end_ns - s.start_ns;
    ++checks;
    const jcore::JozaStats after = current->stats();
    CapturedCheck c;
    c.query = std::string(sql);
    c.request = static_cast<std::uint32_t>(request_id);
    c.snapshot = current->ruleset();
    c.check_ns = s.end_ns - s.start_ns;
    c.query_cache_hit = after.query_cache_hits > before.query_cache_hits;
    c.pti_ran = after.pti_full_runs > before.pti_full_runs;
    c.blocked = decision.action != jwebapp::GateDecision::Action::kAllow;
    c.nti_exact_hits = after.nti_exact_hits - before.nti_exact_hits;
    c.nti_seed_candidates =
        after.nti_seed_candidates - before.nti_seed_candidates;
    c.nti_dp_runs = after.nti_dp_runs - before.nti_dp_runs;
    captured.push_back(std::move(c));
    return decision;
  };
  if (opt.protect) app->SetQueryGate(timed_gate);

  std::vector<double> acquire_us;
  // Serves one request in process; returns false when the tenant pin failed.
  auto serve = [&](const LabeledRequest& lr, jhttp::Response* response) {
    joza::tenant::Fleet::EnginePin pin;
    if (fleet) {
      const std::int64_t begin = NowNs();
      const std::uint32_t span =
          capture ? tracer.Begin("tenant.acquire", request_id, handle_span)
                  : 0;
      auto acquired = fleet->Acquire(lr.tenant);
      if (span != 0) tracer.End(span);
      const std::int64_t elapsed = NowNs() - begin;
      request_gate_ns += elapsed;
      acquire_us.push_back(elapsed / 1e3);
      if (!acquired.ok()) return false;
      pin = std::move(acquired).value();
      current = pin.get();
      inner = pin->MakeGate();
    }
    *response = app->Handle(lr.request);
    return true;
  };

  // --- warm-up: fills the caches; untimed for the end-to-end metrics ------
  const std::int64_t warmup_start = NowNs();
  if (fleet) {
    // Every tenant gets built once, so each later promotion reads a cold
    // image instead of its seed vocabulary.
    for (std::size_t t = 0; t < kTenants; ++t) {
      if (!fleet->Acquire(TenantName(t)).ok()) ++r.warmup_failed;
    }
  }
  for (const LabeledRequest& lr : in.warmup) {
    jhttp::Response response;
    if (!serve(lr, &response) ||
        !ResponseCorrect(lr.attack, response.status, response.body)) {
      ++r.warmup_failed;
    }
  }
  const double warmup_s = (NowNs() - warmup_start) / 1e9;
  acquire_us.clear();

  // --- in-process pass ----------------------------------------------------
  if (fleet && DemoteNextTenants(*fleet) > 0) {
    r.errors.push_back("demotion failed");
  }
  const auto stats_of = [&]() -> jcore::JozaStats {
    if (fleet) return fleet->AggregateEngineStats();
    return engine ? engine->stats() : jcore::JozaStats{};
  };
  const jcore::JozaStats inproc_before = stats_of();
  capture = opt.trace;
  ipc.active.store(opt.trace && pool != nullptr);
  Outcomes inproc;
  std::vector<double>& request_us = r.request_us;
  std::vector<double>& gate_us = r.gate_us;
  request_us.reserve(in.inproc.size());
  gate_us.reserve(in.inproc.size());
  checks = 0;
  for (std::size_t i = 0; i < in.inproc.size(); ++i) {
    const LabeledRequest& lr = in.inproc[i];
    request_id = i;
    request_gate_ns = 0;
    const std::int64_t begin = NowNs();
    handle_span = capture ? tracer.Begin("webapp.handle", i, 0) : 0;
    jhttp::Response response;
    const bool delivered = serve(lr, &response);
    if (handle_span != 0) tracer.End(handle_span);
    const std::int64_t end = NowNs();
    request_us.push_back((end - begin) / 1e3);
    gate_us.push_back(request_gate_ns / 1e3);
    inproc.Record(lr.attack, delivered, response.status, response.body);
  }
  capture = false;
  ipc.active.store(false);
  const jcore::JozaStats inproc_after = stats_of();
  app->SetQueryGate(nullptr);

  // --- wire pass: closed loop, one keep-alive connection per client -------
  // Each connection is pinned to its own event shard: the kernel's
  // SO_REUSEPORT hash otherwise puts both on one shard about half the time,
  // which halves the throughput of that round.
  std::vector<std::unique_ptr<joza::gateway::KeepAliveClient>> conns;
  std::vector<bool> shard_taken(kEventShards, false);
  std::size_t warmup_next = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto client = std::make_unique<joza::gateway::KeepAliveClient>(port.value());
    bool pinned = false;
    for (int attempt = 0; attempt < 64 && !pinned; ++attempt) {
      const auto before = server->shard_stats();
      if (!Exchange(*client, in.warmup[warmup_next++ % in.warmup.size()],
                    nullptr)) {
        ++r.warmup_failed;
      }
      const auto after = server->shard_stats();
      for (std::size_t s = 0; s < after.size() && s < before.size(); ++s) {
        if (after[s].connections > before[s].connections && !shard_taken[s]) {
          shard_taken[s] = pinned = true;
        }
      }
      if (!pinned) client->Close();
    }
    if (!pinned) r.errors.push_back("wire: no free event shard for a client");
    conns.push_back(std::move(client));
  }

  std::vector<std::vector<double>> latency_ms(kClients);
  std::vector<Outcomes> wire(kClients);
  std::vector<Tracer> wire_tracers(kClients);
  std::vector<std::size_t> wire_warmup_failed(kClients, 0);
  std::latch ready(kClients + 1);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      joza::gateway::KeepAliveClient& client = *conns[c];
      for (std::size_t i = c; i < in.warmup.size() && i < kWireWarmup * kClients;
           i += kClients) {
        if (!Exchange(client, in.warmup[i], nullptr)) ++wire_warmup_failed[c];
      }
      latency_ms[c].reserve(in.wire.size() / kClients + 1);
      ready.arrive_and_wait();
      for (std::size_t i = c; i < in.wire.size(); i += kClients) {
        const std::int64_t begin = NowNs();
        Exchange(client, in.wire[i], &wire[c]);
        const std::int64_t end = NowNs();
        latency_ms[c].push_back((end - begin) / 1e6);
        if (opt.trace) {
          wire_tracers[c].Add("wire.request", kWireRequestBase + i, 0, begin,
                              end);
        }
      }
    });
  }
  ready.arrive_and_wait();
  const std::int64_t wire_start = NowNs();
  for (std::thread& t : clients) t.join();
  r.wire_s = (NowNs() - wire_start) / 1e9;
  conns.clear();

  const joza::gateway::GatewayStats gateway_stats = server->stats();
  server->Stop();

  Outcomes outcomes = inproc;
  for (std::size_t c = 0; c < kClients; ++c) {
    r.latency_ms.insert(r.latency_ms.end(), latency_ms[c].begin(),
                        latency_ms[c].end());
    outcomes.Add(wire[c]);
    r.warmup_failed += wire_warmup_failed[c];
    tracer.Merge(wire_tracers[c]);
  }
  r.attempted = outcomes.attempted;
  r.failed = outcomes.failed;
  r.attacks_sent = outcomes.attacks_sent;

  const jcore::JozaStats final_stats = stats_of();
  const joza::tenant::FleetStats fleet_stats =
      fleet ? fleet->stats() : joza::tenant::FleetStats{};
  const joza::ipc::DaemonPool::PoolStats pool_stats =
      pool ? pool->stats() : joza::ipc::DaemonPool::PoolStats{};
  if (pool) pool->Shutdown();
  engine.reset();
  pool.reset();
  fleet.reset();
  if (!cold_dir.empty()) {
    std::error_code ec;
    // Untimed, and the slow part of a tenant_zipf round: each cold image
    // took about 50 ms to free on a 4-vCPU VM whose ext4 disk is mounted
    // with online discard (see kHotTenants).
    std::filesystem::remove_all(cold_dir, ec);
  }
  if (!opt.trace) return r;

  // --- per-layer metrics of a traced round --------------------------------
  auto& m = r.layer;
  const double n_inproc = static_cast<double>(in.inproc.size());
  const auto per_check = [&](std::size_t after, std::size_t before) {
    const double q = static_cast<double>(inproc_after.queries_checked -
                                         inproc_before.queries_checked);
    return q > 0 ? static_cast<double>(after - before) / q : 0.0;
  };
  m["gateway.serve_us_per_req"] =
      Percentile(r.latency_ms, 0.50) * 1e3 - Percentile(request_us, 0.50);
  m["gateway.batch_mean"] =
      gateway_stats.batches > 0
          ? static_cast<double>(gateway_stats.batched_requests) /
                static_cast<double>(gateway_stats.batches)
          : 0;
  m["gateway.refused"] = static_cast<double>(
      gateway_stats.request_timeouts + gateway_stats.oversized_requests +
      gateway_stats.throttled_by_limiter + gateway_stats.shed_by_deadline +
      gateway_stats.connections_rejected + gateway_stats.tenant_unavailable);
  m["tenant.acquire_us_p50"] = Percentile(acquire_us, 0.50);
  m["tenant.acquire_us_p99"] = Percentile(acquire_us, 0.99);
  m["tenant.cold_loads"] = static_cast<double>(fleet_stats.cold_loads);
  m["tenant.demotions"] = static_cast<double>(fleet_stats.demotions);
  m["tenant.peak_resident_mb"] =
      static_cast<double>(fleet_stats.peak_resident_bytes) / (1024.0 * 1024.0);
  m["core.checks_per_req"] = static_cast<double>(checks) / n_inproc;
  m["core.query_cache_hit_frac"] =
      per_check(inproc_after.query_cache_hits, inproc_before.query_cache_hits);
  m["core.structure_cache_hit_frac"] = per_check(
      inproc_after.structure_cache_hits, inproc_before.structure_cache_hits);
  m["core.pti_run_frac"] =
      per_check(inproc_after.pti_full_runs, inproc_before.pti_full_runs);
  m["core.cache_evictions"] = static_cast<double>(final_stats.cache_evictions);
  m["core.warmup_s"] = warmup_s;
  m["costmodel.exact_find"] =
      static_cast<double>(inproc_after.nti_planner_exact_find -
                          inproc_before.nti_planner_exact_find);
  m["costmodel.exact_automaton"] =
      static_cast<double>(inproc_after.nti_planner_exact_automaton -
                          inproc_before.nti_planner_exact_automaton);
  m["costmodel.exact_batch"] =
      static_cast<double>(inproc_after.nti_planner_exact_batch -
                          inproc_before.nti_planner_exact_batch);
  m["ipc.pti_call_us_p50"] = Percentile(ipc.call_us, 0.50);
  m["ipc.pti_call_us_p99"] = Percentile(ipc.call_us, 0.99);
  m["ipc.calls_per_req"] = static_cast<double>(ipc.call_us.size()) / n_inproc;
  m["ipc.spawned"] = static_cast<double>(pool_stats.spawned);
  m["ipc.replaced"] = static_cast<double>(pool_stats.replaced);
  m["ipc.version_mismatches"] =
      static_cast<double>(pool_stats.version_mismatches);
  m["resilience.pti_failures"] = static_cast<double>(final_stats.pti_failures);
  m["resilience.breaker_fast_rejects"] =
      static_cast<double>(final_stats.breaker_fast_rejects);
  m["resilience.degraded_checks"] =
      static_cast<double>(final_stats.degraded_checks);
  double handler_us = 0;
  for (std::size_t i = 0; i < request_us.size(); ++i) {
    handler_us += request_us[i] - gate_us[i];
  }
  m["webapp.handler_us_per_req"] = handler_us / n_inproc;
  m["verdict.false_positives"] = static_cast<double>(outcomes.false_positives);
  m["verdict.missed_attacks"] = static_cast<double>(outcomes.missed_attacks);
  m["verdict.attacks_sent"] = static_cast<double>(outcomes.attacks_sent);

  std::vector<double> check_ns;
  check_ns.reserve(captured.size());
  for (const CapturedCheck& c : captured) {
    check_ns.push_back(static_cast<double>(c.check_ns));
  }
  m["core.check_ns_p50"] = Percentile(check_ns, 0.50);
  m["core.check_ns_p99"] = Percentile(check_ns, 0.99);
  ReplayLayers(in.inproc, captured, &r);
  return r;
}

PassSummary Summarize(const std::vector<const RoundResult*>& rounds) {
  PassSummary out;
  std::vector<double> latency_p50, latency_p99, gate_p99;
  double wire_s = 0, gate_total = 0, gate_count = 0, request_total = 0;
  for (const RoundResult* r : rounds) {
    wire_s += r->wire_s;
    out.latency_samples += r->latency_ms.size();
    for (std::size_t i = 0; i < r->request_us.size(); ++i) {
      gate_total += r->gate_us[i];
      request_total += r->request_us[i];
    }
    gate_count += static_cast<double>(r->gate_us.size());
    latency_p50.push_back(Percentile(r->latency_ms, 0.50));
    latency_p99.push_back(Percentile(r->latency_ms, 0.99));
    gate_p99.push_back(Percentile(r->gate_us, 0.99));
  }
  // A percentile is taken per round, then its lower quartile over rounds:
  // the program's latency in the quieter rounds of the run. Load from other
  // tenants of the host only ever adds time, in bursts that stretch the
  // tail of some rounds, so a pooled percentile, or a mean or even a median
  // over rounds, followed how many bursts a run happened to meet. Over ten
  // wp_read runs of the same code (4-vCPU VM), half of them minutes after
  // the other half, the interquartile range of the median round wire p99
  // was a quarter of its value, that of the lower quartile 15%.
  out.latency_p50_ms = Percentile(latency_p50, 0.25);
  out.latency_p99_ms = Percentile(latency_p99, 0.25);
  out.protect_us_p99 = Percentile(gate_p99, 0.25);
  if (wire_s > 0) {
    out.req_per_s = static_cast<double>(out.latency_samples) / wire_s;
  }
  if (gate_count > 0) out.protect_us_per_req = gate_total / gate_count;
  if (request_total > gate_total) {
    out.overhead_frac = gate_total / (request_total - gate_total);
  }
  return out;
}

}  // namespace perfbench
