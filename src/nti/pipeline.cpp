#include "nti/pipeline.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "costmodel/planner.h"
#include "match/aho_corasick.h"
#include "match/myers.h"
#include "nti/batch.h"

namespace joza::nti {

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

// A match object meaning "no substring within the bound" — identical to
// what the pruned Sellers DP reports.
match::SubstringMatch NoMatch(std::size_t bound) {
  match::SubstringMatch none;
  none.distance = bound + 1;
  none.ratio = 1.0;
  return none;
}

match::SubstringMatch ExactMatch(std::size_t pos, std::size_t length) {
  match::SubstringMatch m;
  m.distance = 0;
  m.span = {pos, pos + length};
  m.ratio = 0.0;
  return m;
}

}  // namespace

MatcherPipeline::MatcherPipeline(std::string_view query,
                                 const NtiConfig& config,
                                 const std::vector<http::InputView>& inputs,
                                 const std::vector<std::size_t>& eligible,
                                 NtiResult& stats)
    : query_(query), config_(config), inputs_(inputs) {
  if (config_.tier != MatchTier::kStaged || eligible.empty()) return;

  exact_pos_.assign(inputs_.size(), kNpos);

  // Stage 1 (exact, batch path): an admission batch installed a shared
  // automaton over every batched request's values — resolve against it
  // (one cached scan per distinct query) and fall through to the
  // per-check planner only for values the batch never saw. With no batch
  // scope every eligible input is unresolved, and no list is built.
  std::vector<std::size_t> batch_misses;
  BatchMatchContext* batch = BatchMatchContext::Current();
  if (batch) {
    for (std::size_t index : eligible) {
      std::size_t pos = kNpos;
      if (batch->Lookup(query_, inputs_[index].value, &pos)) {
        exact_pos_[index] = pos;
        ++stats.planner_exact_batch;
      } else {
        batch_misses.push_back(index);
      }
    }
  }
  const std::vector<std::size_t>& unresolved = batch ? batch_misses : eligible;

  // Stage 1 (exact, per-check path): resolve each remaining input's
  // earliest exact occurrence. Strategy — one multi-pattern scan vs
  // per-input find() — is the cost-model planner's call: measured stage
  // curves when a calibrated model is loaded, the built-in hand-tuned
  // defaults otherwise. Duplicated values (the same payload arriving via
  // several parameters) share one pattern on the automaton path.
  costmodel::ExactStageFeatures features;
  features.input_count = unresolved.size();
  features.query_bytes = query_.size();
  for (std::size_t index : unresolved) {
    features.total_value_bytes += inputs_[index].value.size();
  }
  const costmodel::Planner planner(config_.cost_model);
  const bool use_automaton =
      !unresolved.empty() && planner.PlanExactStage(features) ==
                                 costmodel::ExactStrategy::kAutomaton;
  if (!unresolved.empty()) {
    if (planner.calibrated()) ++stats.planner_calibrated;
    if (use_automaton) {
      stats.planner_exact_automaton += unresolved.size();
    } else {
      stats.planner_exact_find += unresolved.size();
    }
  }
  if (use_automaton) {
    match::AhoCorasick ac;
    std::unordered_map<std::string_view, std::int32_t> dedup;
    std::vector<std::size_t> first_hit;
    for (std::size_t index : unresolved) {
      const std::string_view value = inputs_[index].value;
      if (value.empty() || value.size() > query_.size()) continue;
      if (dedup.emplace(value, static_cast<std::int32_t>(first_hit.size()))
              .second) {
        ac.Add(value, static_cast<std::int32_t>(first_hit.size()));
        first_hit.push_back(kNpos);
      }
    }
    ac.Build();
    // Hits arrive in increasing end position; for equal-length occurrences
    // of one pattern that is also increasing start position, so the first
    // hit recorded per pattern is the earliest occurrence — the same span
    // query.find() (and the reference DP's tie-breaking) reports.
    ac.Scan(query_, [&first_hit](const match::AhoCorasick::Hit& hit) {
      if (first_hit[static_cast<std::size_t>(hit.pattern_id)] == kNpos) {
        first_hit[static_cast<std::size_t>(hit.pattern_id)] = hit.begin;
      }
    });
    for (std::size_t index : unresolved) {
      auto it = dedup.find(inputs_[index].value);
      if (it != dedup.end()) {
        exact_pos_[index] = first_hit[static_cast<std::size_t>(it->second)];
      }
    }
  } else {
    for (std::size_t index : unresolved) {
      exact_pos_[index] = query_.find(inputs_[index].value);
    }
  }

  // Stage 2 precomputation (seeding): the q-gram index is shared by every
  // input that was not resolved exactly. Skip it when none needs it.
  for (std::size_t index : eligible) {
    if (exact_pos_[index] == kNpos) {
      qgrams_.emplace(query_);
      break;
    }
  }
}

std::size_t MatcherPipeline::ThresholdBound(std::size_t input_length) const {
  return static_cast<std::size_t>(
      std::ceil(config_.threshold * static_cast<double>(input_length) /
                (1.0 - config_.threshold)));
}

match::SubstringMatch MatcherPipeline::Match(std::size_t index,
                                             NtiResult& stats) const {
  switch (config_.tier) {
    case MatchTier::kReference:
      ++stats.tier_reference;
      return MatchReference(inputs_[index].value, stats);
    case MatchTier::kBounded:
      ++stats.tier_bounded;
      return MatchBounded(inputs_[index].value, stats);
    case MatchTier::kStaged: {
      const std::string_view value = inputs_[index].value;
      // Kernel eligibility and a well-defined bound gate the staged path;
      // everything else takes the existing Sellers tier.
      if (!match::MyersEligible(value) || config_.threshold >= 1.0) {
        ++stats.tier_bounded;
        return MatchBounded(value, stats);
      }
      ++stats.tier_staged;
      return MatchStaged(index, stats);
    }
  }
  ++stats.tier_reference;
  return MatchReference(inputs_[index].value, stats);
}

match::SubstringMatch MatcherPipeline::MatchReference(std::string_view value,
                                                      NtiResult& stats) const {
  ++stats.dp_runs;
  return match::BestSubstringMatch(query_, value);
}

match::SubstringMatch MatcherPipeline::MatchBounded(std::string_view value,
                                                    NtiResult& stats) const {
  if (config_.exact_fast_path) {
    const std::size_t pos = query_.find(value);
    if (pos != kNpos) {
      ++stats.exact_hits;
      return ExactMatch(pos, value.size());
    }
  }
  ++stats.dp_runs;
  if (config_.bounded_search && config_.threshold < 1.0) {
    return match::BestSubstringMatchBounded(query_, value,
                                            ThresholdBound(value.size()));
  }
  return match::BestSubstringMatch(query_, value);
}

match::SubstringMatch MatcherPipeline::MatchStaged(std::size_t index,
                                                   NtiResult& stats) const {
  const std::string_view value = inputs_[index].value;
  if (exact_pos_[index] != kNpos) {
    ++stats.exact_hits;
    return ExactMatch(exact_pos_[index], value.size());
  }
  const std::size_t bound = ThresholdBound(value.size());
  // No exact occurrence and only distance-0 matches can pass the ratio
  // threshold: nothing to find.
  if (bound == 0) return NoMatch(bound);
  if (qgrams_ && qgrams_->Rejects(value, bound)) {
    ++stats.seed_rejects;
    return NoMatch(bound);
  }
  ++stats.seed_candidates;
  if (match::MyersMinDistance(query_, value) > bound) {
    ++stats.kernel_rejects;
    return NoMatch(bound);
  }
  // A sub-bound match exists: run the reference DP for exact distance,
  // span and tie-breaking. The bound can never prune it away (row minima
  // are monotone, and the best final distance is <= bound).
  ++stats.dp_runs;
  return match::BestSubstringMatchBounded(query_, value, bound);
}

}  // namespace joza::nti
