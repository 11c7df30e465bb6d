// End-to-end benchmark of the protected WordPress testbed.
//
//   joza_perfbench --workload wp_read|wp_write|sqlmap_scan|tenant_zipf
//                  --seed N --seconds S --trace 0|1 --scratch DIR
//                  [--unprotected] [--trace-out FILE]
//
// The process first holds itself on one CPU and fixes the allocator's
// thresholds (PinToOneCpu, FixAllocatorThresholds), then generates the
// requests from the seed. Rounds run until S seconds have passed; each
// round builds fresh state and serves the same fixed request lists (see
// round.cpp). With --trace 0 the last stdout line carries the end-to-end
// metrics, aggregated over all rounds (Summarize in round.cpp; set-up time
// is the median over rounds). With --trace 1, rounds alternate
// untraced/traced and it carries the per-layer metrics of the traced ones
// (medians over rounds). --unprotected serves without Joza: the
// negative control, whose failures must equal exactly the attacks sent.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <malloc.h>
#include <sched.h>

#include "bench.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr Metric kLayerMetrics[] = {
    {"gateway.serve_us_per_req", "us"},
    {"gateway.batch_mean", "req"},
    {"gateway.refused", "count"},
    {"http.parse_ns_per_req", "ns"},
    {"http.bytes_per_req", "bytes"},
    {"tenant.acquire_us_p50", "us"},
    {"tenant.acquire_us_p99", "us"},
    {"tenant.cold_loads", "count"},
    {"tenant.demotions", "count"},
    {"tenant.peak_resident_mb", "MB"},
    {"core.checks_per_req", "count"},
    {"core.check_ns_p50", "ns"},
    {"core.check_ns_p99", "ns"},
    {"core.replayed_ns_p50", "ns"},
    {"core.remainder_ns_p50", "ns"},
    {"core.query_cache_hit_frac", "frac"},
    {"core.structure_cache_hit_frac", "frac"},
    {"core.pti_run_frac", "frac"},
    {"core.cache_evictions", "count"},
    {"core.warmup_s", "s"},
    {"sqlparse.lex_ns_per_query", "ns"},
    {"sqlparse.tokens_per_query", "count"},
    {"sqlparse.structure_hash_ns", "ns"},
    {"sqlparse.critical_ns_per_query", "ns"},
    {"pti.analyze_ns_per_run", "ns"},
    {"nti.analyze_ns_per_query", "ns"},
    {"nti.inputs_per_query", "count"},
    {"nti.input_bytes_per_query", "bytes"},
    {"nti.exact_hits", "count"},
    {"nti.seed_rejects", "count"},
    {"nti.kernel_rejects", "count"},
    {"nti.dp_runs", "count"},
    {"nti.dp_hit_frac", "frac"},
    {"costmodel.exact_find", "count"},
    {"costmodel.exact_automaton", "count"},
    {"costmodel.exact_batch", "count"},
    {"ipc.pti_call_us_p50", "us"},
    {"ipc.pti_call_us_p99", "us"},
    {"ipc.calls_per_req", "count"},
    {"ipc.spawned", "count"},
    {"ipc.replaced", "count"},
    {"ipc.version_mismatches", "count"},
    {"resilience.pti_failures", "count"},
    {"resilience.breaker_fast_rejects", "count"},
    {"resilience.degraded_checks", "count"},
    {"webapp.handler_us_per_req", "us"},
    {"verdict.false_positives", "count"},
    {"verdict.missed_attacks", "count"},
    {"verdict.attacks_sent", "count"},
    {"trace.overhead_frac", "frac"},
    {"trace.wire_overhead_frac", "frac"},
};

struct Args {
  Workload workload = Workload::kWpRead;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool protect = true;
  std::string scratch_dir;
  std::string trace_out;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload wp_read|wp_write|sqlmap_scan|tenant_zipf"
               " --seed N --seconds S --trace 0|1 --scratch DIR"
               " [--unprotected] [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--unprotected") == 0) {
      args->protect = false;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      have_workload = ParseWorkload(value, &args->workload);
      if (!have_workload) return false;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--scratch") == 0) {
      args->scratch_dir = value;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && !args->scratch_dir.empty() && args->seconds > 0 &&
         args->seconds <= 120;
}

// Holds this process, and every thread and daemon it starts later, on the
// highest-numbered CPU it may use; returns that CPU, or -1 if it stays
// unpinned. Spread over CPUs, each wire request and response wakes a thread
// on another CPU, and how long that takes depends on whether the CPU had
// gone idle: wire latency then moved between two modes (about 0.17 and
// 0.27 ms on wp_read, 4-vCPU VM) from one second to the next, and its p99
// from run to run. On one CPU a wake-up only switches threads.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// Fixes glibc's allocation thresholds. By default they slide: freeing a
// large block that was mapped on its own raises the threshold for the next
// ones, and the heap top is handed back to the kernel past a threshold that
// slides with it. Every round frees a whole engine (64 of them under
// tenant_zipf), so how an allocation was served, and whether its pages had
// to be faulted in again, depended on what earlier rounds had freed: tenant
// promotions took about 210 us early in a run and about 350 us from some
// point in a later round on, and protect_us_p99 followed. Fixed thresholds
// give every round the same allocator.
void FixAllocatorThresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_TOP_PAD, 64 << 20);
}

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Accumulates "name": {"value": v, "unit": u} entries.
class MetricsJson {
 public:
  void Add(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      nonfinite_ = true;
      value = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }
  bool nonfinite() const { return nonfinite_; }

 private:
  std::string body_;
  bool nonfinite_ = false;
};

int Run(const Args& args) {
  FixAllocatorThresholds();
  const int cpu = PinToOneCpu();
  if (cpu < 0) std::fprintf(stderr, "warning: could not pin to one CPU\n");
  std::printf("pinned to cpu %d\n", cpu);
  const WorkloadInputs inputs = MakeInputs(args.workload, args.seed);
  const std::int64_t start = NowNs();
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::vector<Span> kept_spans;
  std::size_t attempted = 0, failed = 0, attacks_sent = 0, warmup_failed = 0;
  std::vector<std::string> errors;
  for (std::size_t index = 0;; ++index) {
    const double elapsed = (NowNs() - start) / 1e9;
    const bool enough = args.trace ? !untraced.empty() && !traced.empty()
                                   : !untraced.empty();
    if (enough && elapsed >= args.seconds) break;
    RoundOptions options;
    options.workload = args.workload;
    options.protect = args.protect;
    options.trace = args.trace && index % 2 == 1;
    options.scratch_dir = args.scratch_dir;
    options.index = index;
    RoundResult r = RunRound(inputs, options);
    attempted += r.attempted;
    failed += r.failed;
    attacks_sent += r.attacks_sent;
    warmup_failed += r.warmup_failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    const PassSummary p = Summarize({&r});
    std::printf(
        "round %zu%s: setup %.4f s, %.0f req/s, p50 %.3f ms, p99 %.3f ms "
        "(%zu samples), protect %.2f us/req (p99 %.2f), overhead %.4f, "
        "failed %zu/%zu\n",
        index, options.trace ? " (traced)" : "", r.setup_s, p.req_per_s,
        p.latency_p50_ms, p.latency_p99_ms, p.latency_samples,
        p.protect_us_per_req, p.protect_us_p99, p.overhead_frac, r.failed,
        r.attempted);
    if (!r.errors.empty()) break;
    if (options.trace) {
      if (kept_spans.empty()) kept_spans = r.tracer.spans();
      r.tracer = Tracer();
      traced.push_back(std::move(r));
    } else {
      untraced.push_back(std::move(r));
    }
  }
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
  if (attempted == 0) return 1;  // nothing was served: no result to report

  MetricsJson metrics;
  // Timed figures aggregate every round of a kind (untraced or traced).
  const auto pointers = [](const std::vector<RoundResult>& rounds) {
    std::vector<const RoundResult*> out;
    for (const RoundResult& r : rounds) out.push_back(&r);
    return out;
  };
  const PassSummary plain = Summarize(pointers(untraced));
  if (!args.trace) {
    std::vector<double> setup;
    for (const RoundResult& r : untraced) setup.push_back(r.setup_s);
    metrics.Add("setup_s", Median(setup), "s");
    metrics.Add("req_per_s", plain.req_per_s, "req/s");
    metrics.Add("latency_p50_ms", plain.latency_p50_ms, "ms");
    metrics.Add("latency_p99_ms", plain.latency_p99_ms, "ms");
    metrics.Add("protect_us_per_req", plain.protect_us_per_req, "us");
    metrics.Add("protect_us_p99", plain.protect_us_p99, "us");
    metrics.Add("overhead_frac", plain.overhead_frac, "frac");
    metrics.Add("ok_frac",
                attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                              : 0.0,
                "frac");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("pooled: %zu latency samples over %zu rounds\n",
                plain.latency_samples, untraced.size());
  } else {
    const PassSummary with_trace = Summarize(pointers(traced));
    for (const Metric& metric : kLayerMetrics) {
      double value = 0;
      if (std::strcmp(metric.name, "trace.overhead_frac") == 0) {
        value = plain.protect_us_per_req > 0
                    ? with_trace.protect_us_per_req / plain.protect_us_per_req - 1
                    : 0;
      } else if (std::strcmp(metric.name, "trace.wire_overhead_frac") == 0) {
        value = with_trace.req_per_s > 0
                    ? plain.req_per_s / with_trace.req_per_s - 1
                    : 0;
      } else {
        std::vector<double> values;
        for (const RoundResult& r : traced) {
          const auto it = r.layer.find(metric.name);
          values.push_back(it == r.layer.end() ? 0.0 : it->second);
        }
        value = Median(values);
      }
      metrics.Add(metric.name, value, metric.unit);
    }
    const std::map<std::string, SelfTime> rollup = RollUp(kept_spans);
    std::printf("self time per span (first traced round, %zu spans):\n",
                kept_spans.size());
    for (const auto& [name, st] : rollup) {
      std::printf("  %-26s %8zu spans  total %12.0f ns  self %12.0f ns  "
                  "self/span %9.0f ns\n",
                  name.c_str(), st.count, st.total_ns, st.self_ns,
                  st.self_ns / static_cast<double>(st.count));
    }
    if (!args.trace_out.empty() &&
        !WriteTrace(args.trace_out, kept_spans, rollup)) {
      errors.push_back("cannot write " + args.trace_out);
    }
  }
  if (metrics.nonfinite()) errors.push_back("non-finite metric");

  const bool correct = failed == 0 && warmup_failed == 0 && errors.empty();
  std::printf(
      "summary {\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %zu, "
      "\"protected\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"attacks_sent\": %zu, \"warmup_failed\": %zu, \"fail_frac\": %.15g}\n",
      WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
      untraced.size() + traced.size(), args.protect ? "true" : "false",
      attempted, failed, attacks_sent, warmup_failed,
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.body().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage(argv[0]);
  }
  return perfbench::Run(args);
}
