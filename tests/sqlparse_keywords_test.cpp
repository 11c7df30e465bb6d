#include "sqlparse/keywords.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>

#include "util/strings.h"

namespace joza::sql {
namespace {

TEST(Keywords, CoreKeywordsRecognized) {
  for (const char* kw : {"SELECT", "union", "Or", "AND", "WHERE", "from",
                         "LIMIT", "order", "BY", "insert", "VALUES"}) {
    EXPECT_TRUE(IsKeyword(kw)) << kw;
  }
}

TEST(Keywords, NonKeywordsRejected) {
  for (const char* w : {"users", "id", "wp_posts", "", "SELECTX", "uni on"}) {
    EXPECT_FALSE(IsKeyword(w)) << w;
  }
}

TEST(Keywords, BuiltinFunctionsRecognized) {
  for (const char* f : {"version", "CHAR", "concat", "SLEEP", "count",
                        "group_concat", "md5", "benchmark"}) {
    EXPECT_TRUE(IsBuiltinFunction(f)) << f;
  }
}

TEST(Keywords, NonFunctionsRejected) {
  for (const char* f : {"my_func", "tbl", "", "versions"}) {
    EXPECT_FALSE(IsBuiltinFunction(f)) << f;
  }
}

// The binary search requires sorted tables; probe boundaries.
TEST(Keywords, SortedTableBoundaries) {
  EXPECT_TRUE(IsKeyword("ALL"));    // first
  EXPECT_TRUE(IsKeyword("XOR"));    // last
  EXPECT_TRUE(IsKeyword("AUTO_INCREMENT"));
  EXPECT_TRUE(IsBuiltinFunction("ABS"));      // first
  EXPECT_TRUE(IsBuiltinFunction("VERSION"));  // last
}

// Lowercase and alternating-case spellings of a table entry.
std::array<std::string, 2> CaseVariants(std::string_view upper) {
  std::string lower, mixed;
  for (std::size_t i = 0; i < upper.size(); ++i) {
    lower.push_back(AsciiToLower(upper[i]));
    mixed.push_back(i % 2 == 0 ? upper[i] : AsciiToLower(upper[i]));
  }
  return {lower, mixed};
}

TEST(Keywords, EveryKeywordRecognizedInAnyCase) {
  for (std::string_view kw : kKeywords) {
    EXPECT_TRUE(IsKeyword(kw)) << kw;
    EXPECT_FALSE(IsBuiltinFunction(kw)) << kw;
    for (const std::string& v : CaseVariants(kw)) {
      EXPECT_TRUE(IsKeyword(v)) << v;
    }
  }
}

TEST(Keywords, EveryFunctionRecognizedInAnyCase) {
  for (std::string_view fn : kFunctions) {
    EXPECT_TRUE(IsBuiltinFunction(fn)) << fn;
    for (const std::string& v : CaseVariants(fn)) {
      EXPECT_TRUE(IsBuiltinFunction(v)) << v;
    }
  }
}

// The lookup uppercases into a kMaxKeywordBytes stack buffer: a word that
// fills it exactly is looked up, one byte more is rejected unread.
TEST(Keywords, LookupBufferBoundary) {
  static_assert(kMaxKeywordBytes == 16);
  constexpr std::array<std::string_view, 2> table = {"ABCDEFGHIJKLMNOP",
                                                     "ABCDEFGHIJKLMNOPQ"};
  EXPECT_TRUE(InSortedTable(table, "abcdefghijklmnop"));
  EXPECT_TRUE(InSortedTable(table, "ABCDEFGHIJKLMNOP"));
  EXPECT_FALSE(InSortedTable(table, "abcdefghijklmnopq"));
  EXPECT_FALSE(InSortedTable(table, "ABCDEFGHIJKLMNOPQ"));
  EXPECT_FALSE(InSortedTable(table, "abcdefghijklmno"));
  // Real tables: a 17-byte word whose 16-byte prefix matters is never
  // confused with a keyword or function.
  EXPECT_FALSE(IsKeyword("auto_incrementxxx"));
  EXPECT_FALSE(IsBuiltinFunction("group_concat_xxxx"));
  EXPECT_FALSE(IsKeyword(std::string(4096, 'a')));
}

TEST(ContainsSqlToken, FragmentFiltering) {
  // Fragments retained by PTI must contain at least one critical token.
  EXPECT_TRUE(ContainsSqlToken("SELECT * FROM records WHERE ID="));
  EXPECT_TRUE(ContainsSqlToken(" LIMIT 5"));
  EXPECT_TRUE(ContainsSqlToken("OR"));
  EXPECT_TRUE(ContainsSqlToken("="));
  EXPECT_TRUE(ContainsSqlToken("-- comment"));
  EXPECT_FALSE(ContainsSqlToken("id"));          // bare identifier
  EXPECT_FALSE(ContainsSqlToken("hello world"));
  EXPECT_FALSE(ContainsSqlToken("12345"));
  EXPECT_FALSE(ContainsSqlToken(""));
}

}  // namespace
}  // namespace joza::sql
