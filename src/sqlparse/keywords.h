// SQL keyword and builtin-function tables (MySQL-flavoured subset).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

namespace joza::sql {

// Longest word a table lookup uppercases (into a stack buffer); longer
// words are never keywords or functions. Every table entry fits
// (static_assert in keywords.cpp).
inline constexpr std::size_t kMaxKeywordBytes = 16;

// Sorted uppercase keyword list (binary-searched; sortedness is
// static_asserted). MySQL-flavoured subset covering everything
// WordPress-class applications and the attack corpus use.
inline constexpr std::array<std::string_view, 76> kKeywords = {
    "ALL",       "ALTER",     "AND",        "AS",        "ASC",
    "AUTO_INCREMENT",         "BEGIN",      "BETWEEN",   "BY",
    "CASCADE",   "CASE",      "COLLATE",    "COLUMN",    "COMMIT",
    "CREATE",    "CROSS",     "DEFAULT",    "DELETE",    "DESC",
    "DISTINCT",  "DROP",      "ELSE",       "END",       "ESCAPE",
    "EXISTS",    "FALSE",     "FOREIGN",    "FROM",      "FULL",
    "GRANT",     "GROUP",     "HAVING",     "IN",        "INDEX",
    "INNER",     "INSERT",    "INTERVAL",   "INTO",      "IS",
    "JOIN",      "KEY",       "LEFT",       "LIKE",      "LIMIT",
    "NOT",       "NULL",      "OFFSET",     "ON",        "OR",
    "ORDER",     "OUTER",     "PRIMARY",    "PROCEDURE", "REFERENCES",
    "REGEXP",    "RENAME",    "REPLACE",    "REVOKE",    "RIGHT",
    "ROLLBACK",  "SELECT",    "SET",        "SHOW",      "TABLE",
    "THEN",      "TRUE",      "TRUNCATE",   "UNION",     "UNIQUE",
    "UPDATE",    "USING",     "VALUES",     "WHEN",      "WHERE",
    "WHILE",     "XOR",
};

// Sorted uppercase builtin function names.
inline constexpr std::array<std::string_view, 45> kFunctions = {
    "ABS",       "ASCII",        "AVG",         "BENCHMARK",  "CAST",
    "CEIL",      "CHAR",         "CHAR_LENGTH", "COALESCE",   "CONCAT",
    "CONCAT_WS", "CONVERT",      "COUNT",       "CURDATE",    "CURRENT_USER",
    "DATABASE",  "EXTRACTVALUE", "FLOOR",       "GROUP_CONCAT", "HEX",
    "IF",        "IFNULL",       "INSTR",       "LENGTH",     "LOWER",
    "LTRIM",     "MAX",          "MD5",         "MID",        "MIN",
    "NOW",       "RAND",         "ROUND",       "RTRIM",      "SLEEP",
    "SUBSTR",    "SUBSTRING",    "SUM",         "TRIM",       "UNHEX",
    "UPDATEXML", "UPPER",        "USER",        "USERNAME",   "VERSION",
};

// True if `word`, uppercased, is an entry of `sorted_upper` (a sorted
// table of uppercase words no longer than kMaxKeywordBytes). Allocation
// free.
bool InSortedTable(std::span<const std::string_view> sorted_upper,
                   std::string_view word);

// True if `word` (any case) is a reserved SQL keyword.
bool IsKeyword(std::string_view word);

// True if `word` (any case) is a recognized builtin function name.
bool IsBuiltinFunction(std::string_view word);

// True if `text` contains at least one token a SQL lexer classifies as
// critical (keyword/function/operator/comment). Used to filter extracted
// application fragments: only fragments containing a valid SQL token are
// retained by PTI (Section IV-A).
bool ContainsSqlToken(std::string_view text);

}  // namespace joza::sql
