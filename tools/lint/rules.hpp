// The five project-invariant rule families enforced by tlc_lint.
//
//   determinism    — no wall-clock, ambient randomness, unordered-container
//                    iteration, or pointer-value formatting under src/.
//   hot-path-alloc — no operator new / std::function / throw inside
//                    functions annotated TLC_HOT (src/common/hot.hpp).
//   span-pairing   — a locally-declared span (auto/SpanContext var holding
//                    the result of Tracer::root/child/child_with_id) must be
//                    ended in the same function, and no `return` may occur
//                    between the begin and the first end. Member-stored
//                    spans (cross-callback lifetimes) are exempt by
//                    construction: only declarations are tracked.
//   wire-bounds    — src/wire/ outside the checked Reader/Writer in codec.*
//                    may not use memcpy/memmove/reinterpret_cast or raw
//                    pointer arithmetic on .data().
//   layering       — directory-level include DAG: each src/<dir> may only
//                    include the directories listed in its adjacency row
//                    (sim/net never see tlc/exp, exp never sees fault, ...).
//
// Escapes: `// tlc-lint: allow(<rule>): <reason>` on the offending line, or
// alone on the line above it. The reason is mandatory; a malformed escape is
// itself reported (rule `allow-syntax`, never allowlistable).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace tlc_lint {

struct Finding {
  std::string file;  // root-relative, '/'-separated
  int line = 0;
  std::string rule;
  std::string message;
  bool allowed = false;
  std::string reason;  // the allow escape's reason when allowed
};

/// Stable rule-family identifiers (what allow() escapes and --disable name).
const std::vector<std::string>& rule_ids();

/// Runs every enabled rule family over one lexed file. `rel_path` must be
/// the root-relative path ('/'-separated) — the wire-bounds and layering
/// families key off it. Findings come back unsorted and without allow
/// resolution; the driver applies escapes and ordering.
std::vector<Finding> run_rules(const std::string& rel_path,
                               const LexedFile& lex,
                               const std::set<std::string>& disabled);

}  // namespace tlc_lint
