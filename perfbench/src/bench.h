// Shared declarations of the end-to-end benchmark: workloads and their
// labeled requests, span tracing, one measured round, and the layer replay.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/joza.h"
#include "http/request.h"

namespace perfbench {

enum class Workload { kWpRead, kWpWrite, kSqlmapScan, kTenantZipf };

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

inline constexpr std::size_t kTenants = 64;
std::string TenantName(std::size_t index);

// One generated request and its ground-truth label.
struct LabeledRequest {
  joza::http::Request request;
  bool attack = false;
  std::string tenant;  // routing id; empty outside tenant_zipf
  std::string raw;     // keep-alive HTTP/1.1 bytes of `request`
};

// Everything a round serves, generated from the seed before any timing.
struct WorkloadInputs {
  std::vector<LabeledRequest> warmup;  // in process, untimed
  std::vector<LabeledRequest> inproc;  // timed in-process pass
  std::vector<LabeledRequest> wire;    // timed wire pass
};

WorkloadInputs MakeInputs(Workload w, std::uint64_t seed);

// Ground truth: an attack counts as handled only when the request was
// terminated (500, empty body) and nothing leaked; benign traffic must 200.
bool ResponseCorrect(bool attack, int status, std::string_view body);

// --- time ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  // shared by every span of one request
  std::uint32_t parent = 0;   // 1-based index of the parent span, 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span log of one thread. Spans are written out when the run ends.
class Tracer {
 public:
  // Opens a span and returns its 1-based id (the parent handle of children).
  std::uint32_t Begin(const char* name, std::uint64_t request,
                      std::uint32_t parent) {
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void End(std::uint32_t id) { spans_[id - 1].end_ns = NowNs(); }
  // Records an already-timed span.
  void Add(const char* name, std::uint64_t request, std::uint32_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  }
  // Appends another tracer's spans, re-basing their parent links.
  void Merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SelfTime {
  std::size_t count = 0;
  double total_ns = 0;
  double self_ns = 0;  // duration minus the part child spans cover
};

// Per-name roll-up of span durations and self times.
std::map<std::string, SelfTime> RollUp(const std::vector<Span>& spans);

// Writes the spans (one JSON object per line) and the roll-up.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::map<std::string, SelfTime>& rollup);

// --- one measured round ------------------------------------------------------

struct RoundOptions {
  Workload workload = Workload::kWpRead;
  bool protect = true;     // false: serve unprotected (negative control)
  bool trace = false;      // record spans and replay the layers
  std::string scratch_dir;  // per-round cold store lives under here
  std::size_t index = 0;
};

struct RoundResult {
  double setup_s = 0;
  // Raw samples of the two timed passes; the caller pools them over rounds.
  std::vector<double> request_us;  // in process: time per request
  std::vector<double> gate_us;     // in process: gate time per request
  std::vector<double> latency_ms;  // wire: send to full response
  double wire_s = 0;               // wire pass wall time
  std::size_t attempted = 0;       // both timed passes
  std::size_t failed = 0;
  std::size_t attacks_sent = 0;
  std::size_t warmup_failed = 0;
  // Consistency checks that are not request outcomes (setup errors, replay
  // parity); any entry makes the run incorrect.
  std::vector<std::string> errors;
  // Per-layer metrics (traced rounds only), name -> value.
  std::map<std::string, double> layer;
  Tracer tracer;
};

// End-to-end figures of one or more rounds: totals pooled over the rounds,
// percentiles taken per round and then across rounds (see Summarize).
struct PassSummary {
  double req_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::size_t latency_samples = 0;
  double protect_us_per_req = 0;
  double protect_us_p99 = 0;
  double overhead_frac = 0;
};

PassSummary Summarize(const std::vector<const RoundResult*>& rounds);

RoundResult RunRound(const WorkloadInputs& inputs, const RoundOptions& options);

// --- layer replay --------------------------------------------------------------

// One gate call captured in a traced in-process pass: the query, the request
// it was issued for, the ruleset snapshot it ran against and what the engine
// did with it (from JozaStats deltas around the call).
struct CapturedCheck {
  std::string query;
  std::uint32_t request = 0;  // index into the in-process requests
  std::shared_ptr<const joza::core::RulesetSnapshot> snapshot;
  std::int64_t check_ns = 0;
  bool query_cache_hit = false;
  bool pti_ran = false;
  bool blocked = false;  // the gate did not allow the query
  std::size_t nti_exact_hits = 0;
  std::size_t nti_seed_candidates = 0;
  std::size_t nti_dp_runs = 0;
};

// Re-runs each layer on the captured checks, records replay spans and
// per-layer metrics, and reports every verdict that differs from the
// engine's as an error.
void ReplayLayers(const std::vector<LabeledRequest>& requests,
                  const std::vector<CapturedCheck>& checks,
                  RoundResult* result);

}  // namespace perfbench
