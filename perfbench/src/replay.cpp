// Layer replay of a traced round: every captured (query, request) pair is
// pushed through the layers' public entry points again, against the ruleset
// snapshot the engine checked it under, and each call is timed as a span.
// Replayed verdicts must equal the engine's, so the per-layer times measure
// the work the end-to-end pass did.
#include <string>

#include "bench.h"
#include "http/request_parser.h"
#include "nti/nti.h"
#include "pti/ruleset.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "sqlparse/structure.h"

namespace perfbench {

namespace jhttp = joza::http;
namespace jsql = joza::sql;

namespace {

// Runs `fn` inside a span and returns its duration in nanoseconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, std::uint64_t request,
             Fn&& fn) {
  const std::uint32_t span = tracer.Begin(name, request, 0);
  fn();
  tracer.End(span);
  const Span& s = tracer.spans()[span - 1];
  return static_cast<double>(s.end_ns - s.start_ns);
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReplayLayers(const std::vector<LabeledRequest>& requests,
                  const std::vector<CapturedCheck>& checks,
                  RoundResult* result) {
  Tracer& tracer = result->tracer;
  auto& m = result->layer;

  // HTTP framing and parsing of each request's wire bytes.
  std::vector<double> parse_ns;
  double bytes = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& raw = requests[i].raw;
    bool parsed = false;
    parse_ns.push_back(Timed(tracer, "http.parse", i, [&] {
      jhttp::RequestParser parser;
      std::string framed;
      parsed = parser.Feed(raw) && parser.Next(&framed) &&
               jhttp::ParseRawRequest(framed).ok();
    }));
    if (!parsed) result->errors.push_back("replay: http parse failed");
    bytes += static_cast<double>(raw.size());
  }
  m["http.parse_ns_per_req"] = Mean(parse_ns);
  m["http.bytes_per_req"] = SafeRatio(bytes, requests.size());

  std::vector<double> lex_ns, hash_ns, critical_ns, pti_ns, nti_ns;
  std::vector<double> replayed_ns;
  double tokens = 0, inputs = 0, input_bytes = 0;
  double exact_hits = 0, seed_rejects = 0, kernel_rejects = 0, dp_runs = 0;
  double markings = 0;
  std::size_t mismatches = 0;
  for (const CapturedCheck& c : checks) {
    const std::uint64_t id = c.request;
    const jhttp::Request& request = requests[c.request].request;
    const joza::core::RulesetSnapshot& snap = *c.snapshot;
    const bool strict_pti = snap.pti->config().strict_tokens;

    std::vector<jsql::Token> lexed;
    double replayed = 0;
    lex_ns.push_back(
        Timed(tracer, "sqlparse.lex", id, [&] { lexed = jsql::Lex(c.query); }));
    replayed += lex_ns.back();
    tokens += static_cast<double>(lexed.size());
    if (!c.query_cache_hit) {
      hash_ns.push_back(Timed(tracer, "sqlparse.structure_hash", id, [&] {
        (void)jsql::StructureHashOf(c.query, lexed);
      }));
      replayed += hash_ns.back();
    }

    // The engine builds PTI's critical units only for queries that reach
    // PTI; the replay builds them for every query (parity), timing only the
    // ones the engine built.
    std::vector<jsql::Token> critical;
    std::vector<jsql::CriticalUnit> units;
    critical_ns.push_back(Timed(tracer, "sqlparse.critical", id, [&] {
      critical = jsql::CriticalTokens(lexed, snap.nti.strict_tokens);
      if (c.pti_ran) units = jsql::BuildCriticalUnits(lexed, strict_pti);
    }));
    replayed += critical_ns.back();
    if (!c.pti_ran) units = jsql::BuildCriticalUnits(lexed, strict_pti);

    joza::pti::PtiResult pti;
    if (c.pti_ran) {
      pti_ns.push_back(Timed(tracer, "pti.analyze", id, [&] {
        pti = joza::pti::AnalyzeUnits(*snap.pti, c.query, units);
      }));
      replayed += pti_ns.back();
    } else {
      pti = joza::pti::AnalyzeUnits(*snap.pti, c.query, units);
    }

    const std::vector<jhttp::InputView> views = request.InputViews();
    joza::nti::NtiResult nti;
    nti_ns.push_back(Timed(tracer, "nti.analyze", id, [&] {
      nti = joza::nti::NtiAnalyzer(snap.nti).AnalyzeCritical(c.query, critical,
                                                             views);
    }));
    replayed += nti_ns.back();
    replayed_ns.push_back(replayed);

    inputs += static_cast<double>(nti.inputs_considered);
    for (const jhttp::InputView& v : views) {
      if (v.value.size() >= snap.nti.min_input_length) {
        input_bytes += static_cast<double>(v.value.size());
      }
    }
    exact_hits += static_cast<double>(nti.exact_hits);
    seed_rejects += static_cast<double>(nti.seed_rejects);
    kernel_rejects += static_cast<double>(nti.kernel_rejects);
    dp_runs += static_cast<double>(nti.dp_runs);
    markings += static_cast<double>(nti.markings.size());

    // Parity: same combined verdict, a cached query stays PTI-safe, and
    // NTI's pipeline resolves the inputs exactly as the engine's run did.
    const bool attack = pti.attack_detected || nti.attack_detected;
    if (attack != c.blocked || (!c.pti_ran && pti.attack_detected) ||
        nti.exact_hits != c.nti_exact_hits ||
        nti.seed_candidates != c.nti_seed_candidates ||
        nti.dp_runs != c.nti_dp_runs) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    result->errors.push_back("replay parity: " + std::to_string(mismatches) +
                             " of " + std::to_string(checks.size()) +
                             " checks differ from the engine's verdict");
  }

  const double n = static_cast<double>(checks.size());
  m["sqlparse.lex_ns_per_query"] = Mean(lex_ns);
  m["sqlparse.tokens_per_query"] = SafeRatio(tokens, n);
  m["sqlparse.structure_hash_ns"] = Mean(hash_ns);
  m["sqlparse.critical_ns_per_query"] = Mean(critical_ns);
  m["pti.analyze_ns_per_run"] = Mean(pti_ns);
  m["nti.analyze_ns_per_query"] = Mean(nti_ns);
  m["nti.inputs_per_query"] = SafeRatio(inputs, n);
  m["nti.input_bytes_per_query"] = SafeRatio(input_bytes, n);
  m["nti.exact_hits"] = exact_hits;
  m["nti.seed_rejects"] = seed_rejects;
  m["nti.kernel_rejects"] = kernel_rejects;
  m["nti.dp_runs"] = dp_runs;
  m["nti.dp_hit_frac"] = SafeRatio(markings, dp_runs);
  // How much of the median check the replayed stages explain; the rest is
  // cache probes, snapshot pinning, stats and the gate's own bookkeeping.
  m["core.replayed_ns_p50"] = Percentile(replayed_ns, 0.50);
  m["core.remainder_ns_p50"] =
      m["core.check_ns_p50"] - m["core.replayed_ns_p50"];
}

}  // namespace perfbench
