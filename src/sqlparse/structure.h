// Query-structure fingerprinting for Joza's structure cache (Section VI-A).
//
// Two queries that differ only in the *contents* of data nodes (number and
// string literals) share a structure key. Any injected SQL changes the
// token skeleton — additional keywords, operators or comments — and
// therefore changes the key, so a cache hit on a previously-safe structure
// is itself safe.
//
// The engine keys its structure cache with SkeletonHash, computed over the
// tokens the check has already lexed: no parse, no allocation. The AST
// hash (StructureHash / StructureHashOf) keys on the parse tree, as the
// paper does; it drops comments, so the check path does not use it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sqlparse/ast.h"
#include "sqlparse/token.h"
#include "util/status.h"

namespace joza::sql {

// Hash of the statement's shape with literal values blanked.
std::uint64_t StructureHash(const Statement& stmt);

// Convenience: parse + hash. Fails if the query does not parse.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query);

// Same, over an already-lexed token stream (`tokens` must be the lex of
// `query`) — the hot path's variant, which never re-lexes.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query,
                                        const std::vector<Token>& tokens);

// The structure-cache key: every token's kind, plus the text of every
// non-data token (keywords, functions and identifiers case-insensitively,
// comments and operators byte for byte) and the opening quote byte of
// each string literal. Number and string-literal contents are left out.
// Never fails. Distinct from StructureHash's domain (the two are never
// compared).
std::uint64_t SkeletonHash(const std::vector<Token>& tokens);

// SkeletonHash(Lex(query)).
std::uint64_t TokenSkeletonHash(std::string_view query);

// Human-readable skeleton, e.g. "SELECT * FROM <id> WHERE <id> = <num>".
// Useful for debugging and for the PTI daemon's reporting.
std::string TokenSkeleton(std::string_view query);

}  // namespace joza::sql
