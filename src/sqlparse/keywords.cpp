#include "sqlparse/keywords.h"

#include <algorithm>
#include <vector>

#include "sqlparse/lexer.h"
#include "util/strings.h"

namespace joza::sql {

namespace {

// InSortedTable's contract: sorted, and every entry fits its buffer.
template <std::size_t N>
constexpr bool ValidLookupTable(const std::array<std::string_view, N>& table) {
  for (std::string_view w : table) {
    if (w.size() > kMaxKeywordBytes) return false;
  }
  return std::is_sorted(table.begin(), table.end());
}

static_assert(ValidLookupTable(kKeywords));
static_assert(ValidLookupTable(kFunctions));

}  // namespace

bool InSortedTable(std::span<const std::string_view> sorted_upper,
                   std::string_view word) {
  if (word.size() > kMaxKeywordBytes) return false;
  char buf[kMaxKeywordBytes] = {};
  for (std::size_t i = 0; i < word.size(); ++i) buf[i] = AsciiToUpper(word[i]);
  const std::string_view upper(buf, word.size());
  auto it = std::lower_bound(sorted_upper.begin(), sorted_upper.end(), upper);
  return it != sorted_upper.end() && *it == upper;
}

bool IsKeyword(std::string_view word) { return InSortedTable(kKeywords, word); }

bool IsBuiltinFunction(std::string_view word) {
  return InSortedTable(kFunctions, word);
}

bool ContainsSqlToken(std::string_view text) {
  // Quote characters are SQL string/identifier delimiters; fragments carry
  // them frequently (a quoted query template splits into "... = '" and
  // "' ...") and Table III of the paper lists bare quotes as retained
  // fragments. They also defeat the lexer below (an unbalanced quote
  // swallows the rest of the fragment), so test for them first.
  if (text.find_first_of("'\"`") != std::string_view::npos) return true;
  const std::vector<Token> tokens = Lex(text);
  return std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
    // Bare builtin-function names (CHAR, CAST, ...) count even without a
    // call parenthesis — Table III lists them as retained fragments.
    return t.IsCritical() || (t.kind == TokenKind::kIdentifier &&
                              IsBuiltinFunction(t.text));
  });
}

}  // namespace joza::sql
