// ASCII string helpers shared across Joza modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace joza {

// Byte classifiers. Inline: the SQL lexer calls them for every byte.
constexpr char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr char AsciiToUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

constexpr bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

constexpr bool IsAsciiAlnum(char c) {
  return IsAsciiDigit(c) || IsAsciiAlpha(c);
}

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

std::string_view TrimLeft(std::string_view s);
std::string_view TrimRight(std::string_view s);
std::string_view Trim(std::string_view s);

std::vector<std::string> Split(std::string_view s, char sep);
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

// PHP addslashes(): backslash-escape single quote, double quote, backslash
// and NUL. This is the "magic quotes" transformation WordPress enforces.
std::string AddSlashes(std::string_view s);

// PHP stripslashes(): inverse of AddSlashes.
std::string StripSlashes(std::string_view s);

// Collapses runs of ASCII whitespace to a single space.
std::string CollapseWhitespace(std::string_view s);

// True if `needle` occurs in `haystack` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

// Index of the first case-insensitive occurrence, or npos.
std::size_t FindIgnoreCase(std::string_view haystack, std::string_view needle);

}  // namespace joza
