// tlc_lint token model and lexer.
//
// lex_tokens() is a hand-rolled token scanner. It handles //- and
// /**/-comments, string/char literals (including raw strings),
// preprocessor lines, and `// tlc-lint: allow(<rule>): <reason>` escape
// comments.
//
// Rules never look at raw text: everything they need (identifier spellings,
// punctuation, string-literal contents, preprocessor-line membership, and
// per-line allow escapes) is in the token stream.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace tlc_lint {

struct Token {
  enum class Kind {
    kIdentifier,  // identifiers and keywords (no keyword table needed)
    kNumber,
    kString,  // text = literal *contents*, quotes stripped
    kChar,
    kPunct,  // single char, or one of :: -> << >> combined
  };

  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
  bool preprocessor = false;  // token lives on a `#...` directive line
};

/// One `// tlc-lint: allow(<rule>): <reason>` escape, already resolved to
/// the source line it covers (its own line, or the next code line when the
/// comment stands alone).
struct AllowEntry {
  std::string rule;
  std::string reason;
  int comment_line = 0;
};

struct LexedFile {
  std::vector<Token> tokens;
  /// covered line -> escapes that apply to findings on that line.
  std::map<int, std::vector<AllowEntry>> allows;
  /// lines holding a malformed tlc-lint marker (missing rule or reason);
  /// surfaced by the driver as non-allowlistable `allow-syntax` findings.
  std::vector<std::pair<int, std::string>> bad_allows;
  /// stand-alone allow comments waiting for the next code line; resolved
  /// once tokenization ends.
  std::vector<AllowEntry> pending_allows;
};

/// Hand-rolled scanner; never fails (unterminated constructs are clipped at
/// end of file).
[[nodiscard]] LexedFile lex_tokens(const std::string& source);

}  // namespace tlc_lint
