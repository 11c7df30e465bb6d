// The two evasion engines of Section V-A.
//
// * NTI mutation — exploits application-level input transformations to
//   drive the input↔query edit distance over NTI's threshold: comment
//   blocks stuffed with quotes when magic quotes is active, trailing
//   whitespace when the application trims, and transport encodings that
//   hide the payload from NTI entirely.
// * Taintless — the automated PTI evasion tool: rebuilds the attack from
//   string fragments available in the application (case-matching tokens,
//   substituting equivalents, dropping removable tokens), then verifies
//   the candidate both evades PTI and still exploits.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "nti/nti.h"
#include "phpsrc/fragments.h"
#include "pti/pti.h"

namespace joza::attack {

struct NtiMutation {
  bool possible = false;
  Exploit exploit;
  std::string technique;  // "transport-encoding" | "quote-comment" |
                          // "whitespace-padding" | "" when impossible
};

// Adapts `original` to evade NTI with the given threshold. Fails (possible
// = false) when the plugin applies no exploitable transformation — the
// input reaches the query verbatim and padding would match verbatim too.
NtiMutation MutateForNtiEvasion(const PluginSpec& plugin,
                                const Exploit& original,
                                const nti::NtiConfig& nti_config);

struct TaintlessResult {
  bool success = false;
  Exploit exploit;
  std::string strategy;  // which candidate construction won
  std::size_t candidates_tried = 0;
};

struct TaintlessCandidate {
  Exploit exploit;
  std::string strategy;
};

// Every candidate RunTaintless tries for `plugin`, in the order it tries
// them, built from `original` and the application vocabulary kits.
std::vector<TaintlessCandidate> TaintlessCandidates(const PluginSpec& plugin,
                                                    const Exploit& original);

// Runs Taintless against one plugin: generates candidates from the
// application vocabulary, keeps the first that (a) PTI deems safe and
// (b) still succeeds end-to-end against the unprotected application.
TaintlessResult RunTaintless(const PluginSpec& plugin,
                             const pti::PtiAnalyzer& pti,
                             webapp::Application& unprotected_app);

// Uppercases keyword/function tokens of a payload (Taintless' case-match
// step); exposed for tests.
std::string RecaseSqlTokens(const std::string& payload);

}  // namespace joza::attack
