#include "util/strings.h"

#include <algorithm>

namespace joza {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), AsciiToLower);
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), AsciiToUpper);
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != AsciiToLower(b[i])) return false;
  }
  return true;
}

std::string_view TrimLeft(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && IsAsciiSpace(s[i])) ++i;
  return s.substr(i);
}

std::string_view TrimRight(std::string_view s) {
  std::size_t n = s.size();
  while (n > 0 && IsAsciiSpace(s[n - 1])) --n;
  return s.substr(0, n);
}

std::string_view Trim(std::string_view s) { return TrimRight(TrimLeft(s)); }

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::string AddSlashes(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '\'' || c == '"' || c == '\\' || c == '\0') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string StripSlashes(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out.push_back(s[i + 1]);
      ++i;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string CollapseWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = false;
  for (char c : s) {
    if (IsAsciiSpace(c)) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

std::size_t FindIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return 0;
  if (needle.size() > haystack.size()) return std::string_view::npos;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (AsciiToLower(haystack[i + j]) != AsciiToLower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  return FindIgnoreCase(haystack, needle) != std::string_view::npos;
}

}  // namespace joza
