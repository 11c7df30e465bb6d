// Soundness properties of the structure cache, stated over the key the
// engine uses (sql::SkeletonHash of the query's tokens): data-only
// variation never changes the key (so benign dynamic queries hit), while
// grafting SQL onto a cached-safe template always changes it (so a hit is
// never granted to an injected query).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "attack/catalog.h"
#include "attack/evasion.h"
#include "attack/exploit.h"
#include "attack/payload_gen.h"
#include "attack/workload.h"
#include "core/joza.h"
#include "pti/pti.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "sqlparse/structure.h"
#include "util/rng.h"

namespace joza::core {
namespace {

std::uint64_t Key(const std::string& query) {
  return sql::SkeletonHash(sql::Lex(query));
}

class StructureCacheProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StructureCacheProperty, DataVariantsShareOneHash) {
  Rng rng(GetParam());
  struct Template {
    const char* prefix;
    bool quoted;
    const char* suffix;
  };
  const Template templates[] = {
      {"SELECT id, title FROM wp_posts WHERE id = ", false, ""},
      {"SELECT id FROM wp_posts WHERE title = ", true, " LIMIT 10"},
      {"INSERT INTO wp_comments (id, post_id, author, body) "
       "VALUES (1, 2, 'anon', ",
       true, ")"},
      {"UPDATE wp_posts SET views = views + 1 WHERE id = ", false, ""},
  };
  for (const Template& t : templates) {
    std::optional<std::uint64_t> expected;
    for (int i = 0; i < 25; ++i) {
      // Non-negative numbers only: "-42" lexes as unary minus + literal,
      // which is a (correctly) different structure from "42".
      std::string value = t.quoted
                              ? "'" + rng.NextToken(1 + rng.NextBelow(20)) + "'"
                              : std::to_string(rng.NextInRange(0, 9999));
      const std::uint64_t h = Key(std::string(t.prefix) + value + t.suffix);
      if (!expected) {
        expected = h;
      } else {
        EXPECT_EQ(h, *expected) << t.prefix;
      }
    }
  }
}

TEST_P(StructureCacheProperty, InjectionAlwaysChangesHash) {
  Rng rng(GetParam() * 13 + 7);
  const char* injections[] = {
      " OR 1=1",
      " UNION SELECT pass FROM wp_users",
      " AND SLEEP(2)",
      " OR (SELECT COUNT(*) FROM wp_users) > 0",
  };
  for (int i = 0; i < 25; ++i) {
    std::string benign = "SELECT id, title FROM wp_posts WHERE id = " +
                         std::to_string(rng.NextInRange(1, 9999));
    const std::uint64_t h_benign = Key(benign);
    for (const char* inj : injections) {
      EXPECT_NE(Key(benign + inj), h_benign) << inj;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureCacheProperty,
                         ::testing::Values(1, 2, 3, 4));

// The AST hash drops comments, so a comment appended to a cached-safe query
// shares its AST hash. The engine's key hashes comment tokens.
TEST(StructureKey, CommentSuffixChangesKeyButNotAstHash) {
  const std::string base = "SELECT id, title FROM wp_posts WHERE id = 1";
  const auto ast_base = sql::StructureHashOf(base);
  ASSERT_TRUE(ast_base.ok());
  for (const char* suffix : {" -- x", " #x", " /* x */"}) {
    const auto ast = sql::StructureHashOf(base + suffix);
    ASSERT_TRUE(ast.ok()) << suffix;
    EXPECT_EQ(ast.value(), ast_base.value()) << suffix;
    EXPECT_NE(Key(base + suffix), Key(base)) << suffix;
  }
}

// The same collision, end to end: with the AST key, a comment appended to
// a cached-safe query got a structure-cache hit and skipped PTI.
TEST(StructureKey, CommentSuffixAfterWarmQueryStillReachesPti) {
  php::FragmentSet fragments;
  fragments.AddRaw("SELECT id, title FROM wp_posts WHERE id = ", "post.php");
  Joza joza(std::move(fragments));
  const Verdict benign =
      joza.Check("SELECT id, title FROM wp_posts WHERE id = 1", {});
  ASSERT_FALSE(benign.attack);
  const Verdict commented =
      joza.Check("SELECT id, title FROM wp_posts WHERE id = 2 -- x", {});
  EXPECT_FALSE(commented.structure_cache_hit);
  EXPECT_TRUE(commented.attack);
  EXPECT_EQ(commented.detected_by, DetectedBy::kPti);
}

// PTI's critical units include the delimiter quotes, so the quote byte is
// structure even though the literal's contents are data.
TEST(StructureKey, QuoteStyleIsStructure) {
  const std::string prefix = "SELECT id FROM wp_posts WHERE title = ";
  EXPECT_NE(Key(prefix + "'x'"), Key(prefix + "\"x\""));
  EXPECT_EQ(Key(prefix + "'x'"), Key(prefix + "'other'"));
  EXPECT_EQ(Key(prefix + "\"x\""), Key(prefix + "\"other\""));
}

TEST(StructureKey, KeywordCaseVariantsShareOneKey) {
  const std::uint64_t key =
      Key("SELECT COUNT(*) FROM wp_posts WHERE id = 1 OR id IN (2) LIMIT 5");
  for (const char* variant :
       {"select count(*) from wp_posts where id = 1 or id in (2) limit 5",
        "SeLeCt CoUnT(*) fRoM wp_posts WhErE id = 1 oR id In (2) LiMiT 5",
        "SELECT COUNT(*) FROM WP_POSTS WHERE ID = 1 OR ID IN (2) LIMIT 5"}) {
    EXPECT_EQ(Key(variant), key) << variant;
  }
}

TEST(StructureKey, TokenSkeletonHashIsSkeletonHashOfLex) {
  for (const char* q : {"SELECT 1", "SELECT * FROM t WHERE a = 'x' -- c",
                        "'unterminated", ""}) {
    EXPECT_EQ(sql::TokenSkeletonHash(q), Key(q)) << q;
  }
}

// Catalog-wide soundness: a structure-cache hit is only ever granted under
// a key some PTI-safe query put there, so across everything the attack
// catalog generates no PTI-unsafe query may share a key with a PTI-safe
// one — benign traffic and PTI-evading attacks included.
TEST(StructureCacheSoundness, NoUnsafeQuerySharesAKeyWithASafeOne) {
  auto app = attack::MakeTestbed();
  Joza joza = Joza::Install(*app);
  const webapp::QueryGate gate = joza.MakeGate();
  std::vector<std::string> queries;
  app->SetQueryGate([&](std::string_view sql, const http::Request& request) {
    queries.emplace_back(sql);
    return gate(sql, request);
  });
  // Warm the engine with benign traffic on every endpoint: the site crawl,
  // comment posts, searches and one lookup per catalog plugin.
  for (const auto& w : attack::MakeCrawlWorkload(200, 11)) {
    app->Handle(w.request);
  }
  for (const auto& w : attack::MakeCommentWorkload(40, 12)) {
    app->Handle(w.request);
  }
  for (const auto& w : attack::MakeSearchWorkload(40, 13)) {
    app->Handle(w.request);
  }
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    app->Handle(http::Request::Get(p.route, {{p.param, "1"}}));
  }
  app->SetQueryGate(nullptr);
  ASSERT_EQ(joza.stats().attacks_detected, 0u);
  ASSERT_GT(joza.stats().structure_cache_hits, 0u);

  // Every original exploit, sqlmap variant and Taintless candidate, plus
  // the NTI-evasion mutant of each where the plugin admits one.
  const nti::NtiConfig nti_config;
  std::vector<std::string> attacks;
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    const attack::Exploit original = attack::OriginalExploit(p);
    std::vector<attack::Exploit> exploits = {original};
    for (attack::Exploit& e : attack::GenerateSqlmapPayloads(p, 40, 2015)) {
      exploits.push_back(std::move(e));
    }
    for (attack::TaintlessCandidate& c :
         attack::TaintlessCandidates(p, original)) {
      exploits.push_back(std::move(c.exploit));
    }
    const std::size_t unmutated = exploits.size();
    for (std::size_t i = 0; i < unmutated; ++i) {
      attack::NtiMutation m =
          attack::MutateForNtiEvasion(p, exploits[i], nti_config);
      if (m.possible) exploits.push_back(std::move(m.exploit));
    }
    for (const attack::Exploit& e : exploits) {
      attacks.push_back(attack::QueryFor(p, e.payload));
      if (e.is_probe_pair) {
        attacks.push_back(attack::QueryFor(p, e.false_payload));
      }
    }
  }

  const pti::Ruleset& rules = *joza.ruleset()->pti;
  auto pti_unsafe = [&](const std::string& q) {
    return pti::Analyze(rules, q, sql::Lex(q)).attack_detected;
  };
  std::unordered_map<std::uint64_t, std::string> safe, unsafe;
  queries.insert(queries.end(), attacks.begin(), attacks.end());
  for (const std::string& q : queries) {
    (pti_unsafe(q) ? unsafe : safe).emplace(Key(q), q);
  }
  // Every plugin's original exploit has its own template, so at least one
  // unsafe shape per plugin; the safe side holds the warm-up's shapes.
  EXPECT_GE(unsafe.size(), attack::PluginCatalog().size());
  EXPECT_FALSE(safe.empty());
  for (const auto& [key, q] : unsafe) {
    auto it = safe.find(key);
    if (it != safe.end()) {
      ADD_FAILURE() << "PTI-unsafe query\n  " << q
                    << "\nshares its structure key with PTI-safe query\n  "
                    << it->second;
    }
  }

  // End to end: the warm engine grants no PTI-unsafe attack a cache hit.
  for (const std::string& q : attacks) {
    const Verdict v = joza.Check(q, {});
    if (v.query_cache_hit || v.structure_cache_hit) {
      EXPECT_FALSE(pti_unsafe(q)) << q;
    }
  }

  // Structure hits promote texts into the query cache. After the sweep,
  // every text the warm engine answers from the query cache — benign or
  // attack, inserted by PTI or promoted — is PTI-safe under a fresh
  // analysis of its own critical units.
  std::size_t query_cache_answers = 0;
  for (const std::string& q : queries) {
    if (!joza.Check(q, {}).query_cache_hit) continue;
    ++query_cache_answers;
    const auto units =
        sql::BuildCriticalUnits(sql::Lex(q), rules.config().strict_tokens);
    EXPECT_FALSE(pti::AnalyzeUnits(rules, q, units).attack_detected) << q;
  }
  EXPECT_GT(query_cache_answers, 0u);
}

// End-to-end: after the structure cache is warmed with benign traffic on
// every catalogued endpoint, injected variants still get caught.
TEST(StructureCacheEndToEnd, WarmCacheGrantsNoAmnesty) {
  auto app = attack::MakeTestbed();
  Joza joza = Joza::Install(*app);
  app->SetQueryGate(joza.MakeGate());
  // Warm: benign request to every endpoint.
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    app->Handle(http::Request::Get(p.route, {{p.param, "1"}}));
  }
  EXPECT_EQ(joza.stats().attacks_detected, 0u);
  // Attack: the original exploits, now against warm caches.
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    attack::Exploit e = attack::OriginalExploit(p);
    EXPECT_FALSE(attack::ExploitSucceeds(*app, p, e)) << p.name;
  }
  app->SetQueryGate(nullptr);
}

// Taintless builds queries PTI passes and NTI blocks; once one is seen,
// its shape is cached as PTI-safe. The NTI-evasion mutant of the same
// exploit adds a quote-stuffed comment, which PTI flags and NTI misses. A
// structure key blind to comments gave that mutant a cache hit, letting it
// past both halves; the skeleton key sends it to PTI.
TEST(StructureCacheEndToEnd, TaintlessShapeGrantsNoAmnestyToNtiMutant) {
  auto app = attack::MakeTestbed();
  auto unprotected = attack::MakeTestbed();
  Joza joza = Joza::Install(*app);
  app->SetQueryGate(joza.MakeGate());
  const pti::PtiAnalyzer pti(
      php::FragmentSet::FromSources(unprotected->sources()));
  const nti::NtiConfig nti_config;
  std::size_t tried = 0;
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    const attack::TaintlessResult t =
        attack::RunTaintless(p, pti, *unprotected);
    if (!t.success) continue;
    const attack::NtiMutation m =
        attack::MutateForNtiEvasion(p, t.exploit, nti_config);
    if (!m.possible) continue;
    ++tried;
    EXPECT_FALSE(attack::ExploitSucceeds(*app, p, t.exploit)) << p.name;
    EXPECT_FALSE(attack::ExploitSucceeds(*app, p, m.exploit)) << p.name;
  }
  EXPECT_GT(tried, 0u);
  app->SetQueryGate(nullptr);
}

// Benign-per-endpoint PTI coverage: with the full testbed vocabulary,
// every endpoint's benign query must be PTI-trusted (per-plugin FP check).
TEST(PerEndpointCoverage, BenignQueriesFullyTrusted) {
  auto app = attack::MakeTestbed();
  pti::PtiAnalyzer pti(php::FragmentSet::FromSources(app->sources()));
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    for (const char* value : {"1", "42", "0"}) {
      const std::string q = attack::QueryFor(p, value);
      auto r = pti.Analyze(q);
      EXPECT_FALSE(r.attack_detected) << p.name << " query: " << q;
    }
  }
}

}  // namespace
}  // namespace joza::core
