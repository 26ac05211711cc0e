#include "rules.hpp"

#include <array>
#include <cstddef>
#include <map>
#include <optional>

namespace tlc_lint {
namespace {

using Kind = Token::Kind;

constexpr const char* kDeterminism = "determinism";
constexpr const char* kHotPathAlloc = "hot-path-alloc";
constexpr const char* kSpanPairing = "span-pairing";
constexpr const char* kWireBounds = "wire-bounds";
constexpr const char* kLayering = "layering";

bool is_ident(const Token& t, const char* text) {
  return t.kind == Kind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Kind::kPunct && t.text == text;
}

// ------------------------------------------------------------- region tree
//
// Brace regions over the non-preprocessor token stream, classified so the
// span-pairing and hot-path rules can find "the enclosing function". A
// region opened by `{` is:
//   * kFunction — preceded (modulo const/noexcept/trailing-return syntax)
//     by a non-control parameter list `)...` or a lambda introducer `]`;
//   * kControl  — if/for/while/switch/catch headers, else/do/try bodies;
//   * kOther    — namespaces, classes, enums, braced initializers.

enum class RegionKind { kFunction, kControl, kOther };

struct Region {
  std::size_t open = 0;   // index into `code` of the `{`
  std::size_t close = 0;  // index into `code` of the matching `}`
  RegionKind kind = RegionKind::kOther;
};

/// Indices of the non-preprocessor tokens, the rules' working view.
std::vector<std::size_t> code_view(const LexedFile& lex) {
  std::vector<std::size_t> code;
  code.reserve(lex.tokens.size());
  for (std::size_t i = 0; i < lex.tokens.size(); ++i) {
    if (!lex.tokens[i].preprocessor) code.push_back(i);
  }
  return code;
}

/// Classifies the `{` at code index `open` by walking backwards over the
/// declarator tail (const, noexcept, override, final, `-> Type`).
RegionKind classify_open(const std::vector<const Token*>& ct,
                         std::size_t open) {
  static const std::set<std::string> kTail = {"const", "noexcept", "override",
                                              "final", "mutable"};
  static const std::set<std::string> kControlKw = {"if", "for", "while",
                                                   "switch", "catch"};
  std::size_t j = open;
  int budget = 16;  // bounded walk: a declarator tail is short
  bool seen_arrow = false;
  while (j > 0 && budget-- > 0) {
    --j;
    const Token& t = *ct[j];
    if (t.kind == Kind::kIdentifier) {
      if (kTail.count(t.text) > 0) continue;
      if (!seen_arrow) {
        if (t.text == "else" || t.text == "do" || t.text == "try") {
          return RegionKind::kControl;
        }
        // `-> Type {` / `-> ns::Type {`: keep walking towards the arrow.
        if (j > 0 && (is_punct(*ct[j - 1], "->") ||
                      is_punct(*ct[j - 1], "::"))) {
          continue;
        }
        return RegionKind::kOther;  // `struct Foo {`, `namespace x {`, ...
      }
      continue;  // trailing-return type name
    }
    if (is_punct(t, "->")) {
      seen_arrow = true;
      continue;
    }
    if (seen_arrow && (is_punct(t, "::") || is_punct(t, "<") ||
                       is_punct(t, ">") || is_punct(t, "*") ||
                       is_punct(t, "&"))) {
      continue;  // qualified trailing-return type
    }
    if (is_punct(t, ")")) {
      // Find the matching `(`; the token before it decides.
      int depth = 1;
      while (j > 0 && depth > 0) {
        --j;
        if (is_punct(*ct[j], ")")) ++depth;
        if (is_punct(*ct[j], "(")) --depth;
      }
      if (j == 0) return RegionKind::kOther;
      const Token& head = *ct[j - 1];
      if (head.kind == Kind::kIdentifier && kControlKw.count(head.text) > 0) {
        return RegionKind::kControl;
      }
      if (is_ident(head, "constexpr") && j >= 2 && is_ident(*ct[j - 2], "if")) {
        return RegionKind::kControl;  // `if constexpr (...) {`
      }
      if (is_punct(head, "]")) return RegionKind::kFunction;  // lambda
      return RegionKind::kFunction;
    }
    if (is_punct(t, "]")) return RegionKind::kFunction;  // `[&] { ... }`
    return RegionKind::kOther;  // `= {`, `, {`, `return {`, ...
  }
  return RegionKind::kOther;
}

std::vector<Region> build_regions(const std::vector<const Token*>& ct) {
  std::vector<Region> regions;
  std::vector<std::size_t> stack;  // indices into `regions`
  for (std::size_t i = 0; i < ct.size(); ++i) {
    if (is_punct(*ct[i], "{")) {
      Region r;
      r.open = i;
      r.kind = classify_open(ct, i);
      stack.push_back(regions.size());
      regions.push_back(r);
    } else if (is_punct(*ct[i], "}") && !stack.empty()) {
      regions[stack.back()].close = i;
      stack.pop_back();
    }
  }
  // Unterminated regions (truncated file) extend to the end.
  for (std::size_t idx : stack) regions[idx].close = ct.size();
  return regions;
}

/// Innermost enclosing kFunction region of code index `i`, or nullopt.
std::optional<Region> enclosing_function(const std::vector<Region>& regions,
                                         std::size_t i) {
  std::optional<Region> best;
  for (const Region& r : regions) {
    if (r.kind != RegionKind::kFunction) continue;
    if (r.open < i && i < r.close) {
      if (!best || r.open > best->open) best = r;
    }
  }
  return best;
}

// --------------------------------------------------------------- reporting

class Sink {
 public:
  Sink(std::string rel_path, std::vector<Finding>* out)
      : rel_path_(std::move(rel_path)), out_(out) {}

  void report(int line, const char* rule, std::string message) {
    out_->push_back(Finding{rel_path_, line, rule, std::move(message),
                            /*allowed=*/false, /*reason=*/{}});
  }

 private:
  std::string rel_path_;
  std::vector<Finding>* out_;
};

// ------------------------------------------------------- rule: determinism

/// Type-like names that are banned on sight.
const std::set<std::string>& banned_types() {
  static const std::set<std::string> kSet = {
      "system_clock", "high_resolution_clock", "random_device"};
  return kSet;
}

/// Function names banned when called (`name(`), including `std::name(` and
/// global `::name(`, but not member calls (`obj.time(...)`) or calls
/// qualified by another namespace.
const std::set<std::string>& banned_calls() {
  static const std::set<std::string> kSet = {
      "time",     "gettimeofday", "clock_gettime", "localtime", "localtime_r",
      "gmtime",   "gmtime_r",     "rand",          "srand",     "rand_r",
      "drand48",  "lrand48",      "mrand48",       "random",    "getenv",
      "getpid"};
  return kSet;
}

void rule_determinism(const std::vector<const Token*>& ct, Sink& sink) {
  // Names of variables declared with an unordered container type, for the
  // iteration checks below. Token-scan approximation: one pass collecting
  // `unordered_*< ... > [&*const]* name` declarator shapes.
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i < ct.size(); ++i) {
    const Token& t = *ct[i];
    if (t.kind != Kind::kIdentifier || t.text.rfind("unordered_", 0) != 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= ct.size() || !is_punct(*ct[j], "<")) continue;
    int depth = 0;
    for (; j < ct.size(); ++j) {
      if (is_punct(*ct[j], "<")) ++depth;
      if (is_punct(*ct[j], ">")) --depth;
      if (ct[j]->kind == Kind::kPunct && ct[j]->text == ">>") depth -= 2;
      if (depth <= 0) break;
    }
    // After the template argument list: skip declarator decorations, then an
    // identifier directly followed by a declarator terminator is the name.
    for (++j; j < ct.size(); ++j) {
      const Token& d = *ct[j];
      if (is_punct(d, "&") || is_punct(d, "*") || is_ident(d, "const")) {
        continue;
      }
      if (d.kind == Kind::kIdentifier && j + 1 < ct.size()) {
        const Token& after = *ct[j + 1];
        if (is_punct(after, ";") || is_punct(after, "=") ||
            is_punct(after, "{") || is_punct(after, "(") ||
            is_punct(after, ",") || is_punct(after, ")")) {
          unordered_vars.insert(d.text);
        }
      }
      break;
    }
  }

  for (std::size_t i = 0; i < ct.size(); ++i) {
    const Token& t = *ct[i];
    if (t.kind == Kind::kString) {
      if (t.text.find("%p") != std::string::npos) {
        sink.report(t.line, kDeterminism,
                    "\"%p\" formats a pointer value; addresses are not "
                    "reproducible across runs");
      }
      continue;
    }
    if (t.kind != Kind::kIdentifier) {
      // `<< static_cast<[const] void*>` — streaming a pointer value.
      if (is_punct(t, "<<") && i + 1 < ct.size() &&
          is_ident(*ct[i + 1], "static_cast")) {
        std::size_t j = i + 2;
        if (j < ct.size() && is_punct(*ct[j], "<")) ++j;
        if (j < ct.size() && is_ident(*ct[j], "const")) ++j;
        if (j + 1 < ct.size() && is_ident(*ct[j], "void") &&
            is_punct(*ct[j + 1], "*")) {
          sink.report(t.line, kDeterminism,
                      "streaming a pointer value; addresses are not "
                      "reproducible across runs");
        }
      }
      continue;
    }

    if (banned_types().count(t.text) > 0) {
      sink.report(t.line, kDeterminism,
                  "'" + t.text +
                      "' is nondeterministic; use the simulated clock / "
                      "seeded common/rng instead");
      continue;
    }

    if (t.text == "reinterpret_cast" && i + 2 < ct.size() &&
        is_punct(*ct[i + 1], "<")) {
      std::size_t j = i + 2;
      if (is_ident(*ct[j], "std") && j + 1 < ct.size() &&
          is_punct(*ct[j + 1], "::")) {
        j += 2;
      }
      if (j < ct.size() && (is_ident(*ct[j], "uintptr_t") ||
                            is_ident(*ct[j], "intptr_t"))) {
        sink.report(t.line, kDeterminism,
                    "casting a pointer to an integer bakes an address into "
                    "data; addresses are not reproducible across runs");
      }
      continue;
    }

    if (banned_calls().count(t.text) > 0) {
      if (i + 1 >= ct.size() || !is_punct(*ct[i + 1], "(")) continue;
      bool qualified_elsewhere = false;
      if (i > 0) {
        const Token& prev = *ct[i - 1];
        if (is_punct(prev, ".") || is_punct(prev, "->")) continue;  // member
        if (is_punct(prev, "::") && i > 1 &&
            ct[i - 2]->kind == Kind::kIdentifier &&
            ct[i - 2]->text != "std") {
          qualified_elsewhere = true;  // some other namespace's `time`
        }
      }
      if (qualified_elsewhere) continue;
      sink.report(t.line, kDeterminism,
                  "'" + t.text +
                      "()' reads ambient state (wall clock / libc rng / "
                      "environment); derive it from simulation state");
      continue;
    }

    // Range-for over an unordered container: iteration order is
    // implementation-defined, so any fold over it is nondeterministic.
    if (t.text == "for" && i + 1 < ct.size() && is_punct(*ct[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < ct.size(); ++j) {
        if (is_punct(*ct[j], "(")) ++depth;
        if (is_punct(*ct[j], ")") && --depth == 0) {
          close = j;
          break;
        }
        if (depth == 1 && is_punct(*ct[j], ":") && colon == 0) colon = j;
      }
      if (colon != 0 && close != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (ct[j]->kind == Kind::kIdentifier &&
              unordered_vars.count(ct[j]->text) > 0) {
            sink.report(ct[j]->line, kDeterminism,
                        "range-for over unordered container '" +
                            ct[j]->text +
                            "'; iteration order is not deterministic");
            break;
          }
        }
      }
      continue;
    }

    // Explicit iterator walk: `name.begin(` / `name.cbegin(`.
    if (unordered_vars.count(t.text) > 0 && i + 2 < ct.size() &&
        is_punct(*ct[i + 1], ".") &&
        (is_ident(*ct[i + 2], "begin") || is_ident(*ct[i + 2], "cbegin"))) {
      sink.report(t.line, kDeterminism,
                  "iterating unordered container '" + t.text +
                      "'; iteration order is not deterministic");
    }
  }
}

// ---------------------------------------------------- rule: hot-path-alloc

void rule_hot_path(const std::vector<const Token*>& ct,
                   const std::vector<Region>& regions, Sink& sink) {
  static const std::set<std::string> kBannedCalls = {
      "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared"};
  // Each makes OpenSSL 3 look the digest up in its provider store: an
  // explicit fetch, or (EVP_sha256 passed to an init) an implicit one.
  static const std::set<std::string> kFetchCalls = {
      "EVP_sha256", "EVP_get_digestbyname", "EVP_MD_fetch"};
  // open-brace code index -> region
  std::map<std::size_t, const Region*> by_open;
  for (const Region& r : regions) by_open[r.open] = &r;

  for (std::size_t i = 0; i < ct.size(); ++i) {
    if (!is_ident(*ct[i], "TLC_HOT")) continue;
    // Find the annotated function's body: the first `{` at paren depth 0.
    // A `;` first means this is a declaration — the definition is checked
    // where it lives.
    int depth = 0;
    std::size_t open = 0;
    for (std::size_t j = i + 1; j < ct.size(); ++j) {
      if (is_punct(*ct[j], "(")) ++depth;
      if (is_punct(*ct[j], ")")) --depth;
      if (depth == 0 && is_punct(*ct[j], ";")) break;
      if (depth == 0 && is_punct(*ct[j], "{")) {
        open = j;
        break;
      }
    }
    if (open == 0) continue;
    const auto it = by_open.find(open);
    if (it == by_open.end()) continue;
    const Region& body = *it->second;

    for (std::size_t j = body.open + 1; j < body.close && j < ct.size();
         ++j) {
      const Token& t = *ct[j];
      if (t.kind != Kind::kIdentifier) continue;
      if (t.text == "new") {
        sink.report(t.line, kHotPathAlloc,
                    "operator new inside a TLC_HOT function; hot paths must "
                    "not allocate");
      } else if (t.text == "throw") {
        sink.report(t.line, kHotPathAlloc,
                    "throw inside a TLC_HOT function; exceptions allocate "
                    "and break the no-surprise hot path");
      } else if (t.text == "function" && j >= 2 &&
                 is_punct(*ct[j - 1], "::") && is_ident(*ct[j - 2], "std")) {
        sink.report(t.line, kHotPathAlloc,
                    "std::function inside a TLC_HOT function; use "
                    "sim::InlineCallback or a template parameter");
      } else if (kBannedCalls.count(t.text) > 0 && j + 1 < ct.size() &&
                 (is_punct(*ct[j + 1], "(") || is_punct(*ct[j + 1], "<"))) {
        sink.report(t.line, kHotPathAlloc,
                    "'" + t.text +
                        "' allocates inside a TLC_HOT function; hot paths "
                        "must not allocate");
      } else if (kFetchCalls.count(t.text) > 0 && j + 1 < ct.size() &&
                 is_punct(*ct[j + 1], "(")) {
        sink.report(t.line, kHotPathAlloc,
                    "'" + t.text +
                        "' looks up a digest algorithm inside a TLC_HOT "
                        "function; fetch once per context, off the hot path");
      }
    }
  }
}

// ------------------------------------------------------ rule: span-pairing

/// True when ct[i] is the method name of a call on a Tracer
/// (`<expr>.spans.<name>(` or via ->).
bool is_tracer_call(const std::vector<const Token*>& ct, std::size_t i) {
  return i >= 2 && (is_punct(*ct[i - 1], ".") || is_punct(*ct[i - 1], "->")) &&
         is_ident(*ct[i - 2], "spans");
}

bool is_tracer_begin(const std::vector<const Token*>& ct, std::size_t i) {
  static const std::set<std::string> kBegin = {"root", "child",
                                               "child_with_id"};
  const Token& t = *ct[i];
  return t.kind == Kind::kIdentifier && kBegin.count(t.text) > 0 &&
         is_tracer_call(ct, i);
}

bool is_tracer_end(const std::vector<const Token*>& ct, std::size_t i) {
  const Token& t = *ct[i];
  return t.kind == Kind::kIdentifier && t.text == "end" &&
         is_tracer_call(ct, i);
}

/// If the begin at `i` initializes a local declaration
/// (`auto name = ...` / `[const] [obs::]SpanContext name = ...`), returns
/// the variable name. Member assignments (`x.span_ = ...`) and plain
/// reassignments return nullopt — those spans legitimately cross functions.
std::optional<std::string> local_span_name(const std::vector<const Token*>& ct,
                                           std::size_t i) {
  // Walk back to the `=` of this statement (bounded; stop at statement
  // boundaries).
  std::size_t j = i;
  int budget = 12;
  while (j > 0 && budget-- > 0) {
    --j;
    const Token& t = *ct[j];
    if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) {
      return std::nullopt;
    }
    if (is_punct(t, "=")) {
      if (j < 2) return std::nullopt;
      const Token& name = *ct[j - 1];
      if (name.kind != Kind::kIdentifier) return std::nullopt;
      const Token& before = *ct[j - 2];
      if (is_ident(before, "auto") || is_ident(before, "SpanContext")) {
        return name.text;
      }
      return std::nullopt;  // member / reassignment: exempt
    }
  }
  return std::nullopt;
}

/// True when identifier `name` appears inside the argument list that opens
/// at the first `(` after ct[i].
bool name_in_args(const std::vector<const Token*>& ct, std::size_t i,
                  const std::string& name) {
  std::size_t j = i + 1;
  while (j < ct.size() && !is_punct(*ct[j], "(")) {
    if (is_punct(*ct[j], ";")) return false;
    ++j;
  }
  int depth = 0;
  for (; j < ct.size(); ++j) {
    if (is_punct(*ct[j], "(")) ++depth;
    if (is_punct(*ct[j], ")") && --depth == 0) return false;
    if (depth >= 1 && is_ident(*ct[j], name.c_str())) return true;
  }
  return false;
}

void rule_span_pairing(const std::vector<const Token*>& ct,
                       const std::vector<Region>& regions, Sink& sink) {
  for (std::size_t i = 0; i < ct.size(); ++i) {
    if (!is_tracer_begin(ct, i)) continue;
    const std::optional<std::string> name = local_span_name(ct, i);
    if (!name) continue;

    const std::optional<Region> fn = enclosing_function(regions, i);
    const std::size_t scope_end = fn ? fn->close : ct.size();

    std::size_t first_end = 0;
    for (std::size_t j = i + 1; j < scope_end; ++j) {
      if (is_tracer_end(ct, j) && name_in_args(ct, j, *name)) {
        first_end = j;
        break;
      }
    }
    if (first_end == 0) {
      sink.report(ct[i]->line, kSpanPairing,
                  "span '" + *name +
                      "' is begun here but never ended in this function");
      continue;
    }
    for (std::size_t j = i + 1; j < first_end; ++j) {
      if (is_ident(*ct[j], "return")) {
        sink.report(ct[j]->line, kSpanPairing,
                    "return before span '" + *name +
                        "' is ended; every exit must close the span");
      }
    }
  }
}

// ------------------------------------------------------- rule: wire-bounds

void rule_wire_bounds(const std::string& rel_path,
                      const std::vector<const Token*>& ct, Sink& sink) {
  if (rel_path.rfind("src/wire/", 0) != 0) return;
  // The checked cursor implementation itself: the only place raw byte
  // handling is allowed to live.
  if (rel_path == "src/wire/codec.cpp" || rel_path == "src/wire/codec.hpp") {
    return;
  }
  static const std::set<std::string> kRawMem = {"memcpy", "memmove", "memset",
                                                "strcpy", "strncpy", "strcat"};
  for (std::size_t i = 0; i < ct.size(); ++i) {
    const Token& t = *ct[i];
    if (t.kind != Kind::kIdentifier) continue;
    if (kRawMem.count(t.text) > 0) {
      sink.report(t.line, kWireBounds,
                  "'" + t.text +
                      "' in wire code outside the checked codec; use "
                      "wire::Writer/Reader");
      continue;
    }
    if (t.text == "reinterpret_cast") {
      sink.report(t.line, kWireBounds,
                  "reinterpret_cast in wire code outside the checked codec; "
                  "use wire::Writer/Reader");
      continue;
    }
    // `.data() +` / `.data()[` — raw pointer arithmetic past the bounds
    // checks.
    if (t.text == "data" && i + 3 < ct.size() && is_punct(*ct[i + 1], "(") &&
        is_punct(*ct[i + 2], ")") &&
        (is_punct(*ct[i + 3], "+") || is_punct(*ct[i + 3], "["))) {
      sink.report(t.line, kWireBounds,
                  "raw pointer arithmetic on .data() in wire code; use "
                  "wire::Reader's checked cursor");
    }
  }
}

// ---------------------------------------------------------- rule: layering

/// Allowed include edges, directory-level, matching DESIGN.md's layer
/// diagram. Key absent => directory unknown to the DAG (not linted). A
/// directory may always include itself.
const std::map<std::string, std::set<std::string>>& allowed_deps() {
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {}},
      {"obs", {"common"}},
      {"sim", {"common", "obs"}},
      {"crypto", {"common", "obs"}},
      {"wire", {"common", "obs"}},
      {"charging", {"common", "obs", "sim"}},
      {"net", {"common", "obs", "charging", "sim"}},
      {"workloads", {"common", "obs", "net", "sim"}},
      {"tlc", {"common", "obs", "charging", "crypto", "wire"}},
      {"epc",
       {"common", "obs", "charging", "net", "sim", "tlc", "wire"}},
      {"monitor", {"common", "obs", "charging", "epc", "tlc"}},
      {"exp",
       {"common", "obs", "charging", "epc", "monitor", "sim", "tlc", "wire",
        "workloads"}},
      {"serve",
       {"common", "obs", "charging", "crypto", "epc", "sim", "tlc",
        "wire"}},
      {"fault",
       {"common", "obs", "charging", "crypto", "exp", "net", "sim", "tlc",
        "wire"}},
  };
  return kDag;
}

void rule_layering(const std::string& rel_path, const LexedFile& lex,
                   Sink& sink) {
  if (rel_path.rfind("src/", 0) != 0) return;
  const std::size_t dir_end = rel_path.find('/', 4);
  if (dir_end == std::string::npos) return;
  const std::string dir = rel_path.substr(4, dir_end - 4);
  const auto row = allowed_deps().find(dir);
  if (row == allowed_deps().end()) return;

  const auto& tokens = lex.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!tokens[i].preprocessor || !is_punct(tokens[i], "#")) continue;
    if (!is_ident(tokens[i + 1], "include")) continue;
    if (tokens[i + 2].kind != Kind::kString) continue;  // <system> headers
    const std::string& path = tokens[i + 2].text;
    const std::size_t slash = path.find('/');
    if (slash == std::string::npos) continue;  // sibling include
    const std::string target = path.substr(0, slash);
    if (target == dir) continue;
    if (allowed_deps().count(target) == 0) continue;  // not a src layer
    if (row->second.count(target) == 0) {
      sink.report(tokens[i].line, kLayering,
                  "src/" + dir + " must not include " + target + "/ ('" +
                      path + "'); see the layer DAG in DESIGN.md");
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      kDeterminism, kHotPathAlloc, kSpanPairing, kWireBounds, kLayering};
  return kIds;
}

std::vector<Finding> run_rules(const std::string& rel_path,
                               const LexedFile& lex,
                               const std::set<std::string>& disabled) {
  std::vector<Finding> findings;
  Sink sink(rel_path, &findings);

  const std::vector<std::size_t> code_idx = code_view(lex);
  std::vector<const Token*> ct;
  ct.reserve(code_idx.size());
  for (std::size_t idx : code_idx) ct.push_back(&lex.tokens[idx]);
  const std::vector<Region> regions = build_regions(ct);

  if (disabled.count(kDeterminism) == 0) rule_determinism(ct, sink);
  if (disabled.count(kHotPathAlloc) == 0) rule_hot_path(ct, regions, sink);
  if (disabled.count(kSpanPairing) == 0) {
    rule_span_pairing(ct, regions, sink);
  }
  if (disabled.count(kWireBounds) == 0) rule_wire_bounds(rel_path, ct, sink);
  if (disabled.count(kLayering) == 0) rule_layering(rel_path, lex, sink);

  return findings;
}

}  // namespace tlc_lint
