#include "lexer.hpp"

#include <algorithm>
#include <cctype>

namespace tlc_lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parses the body of a comment for a tlc-lint marker and folds it into
/// `out`. `comment` is the comment text without the // or /* */
/// delimiters; `line` is the line the comment starts on; `code_before` is
/// true when code tokens precede the comment on that line (escape covers
/// the same line) and false when the comment stands alone (escape covers
/// the next code line, resolved later).
void parse_allow_comment(const std::string& comment, int line,
                         bool code_before, LexedFile* out) {
  const std::string marker = "tlc-lint:";
  const std::size_t at = comment.find(marker);
  if (at == std::string::npos) return;

  // Expected shape after the marker:  allow(<rule>): <reason>
  const std::string rest = trim(comment.substr(at + marker.size()));
  const std::string kw = "allow(";
  if (rest.rfind(kw, 0) != 0) {
    out->bad_allows.emplace_back(
        line, "tlc-lint marker without allow(<rule>): <reason>");
    return;
  }
  const std::size_t close = rest.find(')', kw.size());
  if (close == std::string::npos) {
    out->bad_allows.emplace_back(line, "unterminated allow(<rule>)");
    return;
  }
  const std::string rule = trim(rest.substr(kw.size(), close - kw.size()));
  std::string tail = trim(rest.substr(close + 1));
  if (tail.empty() || tail[0] != ':') {
    out->bad_allows.emplace_back(
        line, "allow(" + rule + ") missing ': <reason>'");
    return;
  }
  const std::string reason = trim(tail.substr(1));
  if (rule.empty() || reason.empty()) {
    out->bad_allows.emplace_back(
        line, "allow escape needs a rule id and a non-empty reason");
    return;
  }

  AllowEntry entry{rule, reason, line};
  if (code_before) {
    out->allows[line].push_back(entry);
  } else {
    out->pending_allows.push_back(entry);
  }
}

/// Resolves stand-alone allow comments to the next line holding a code
/// token. Called once after tokenization.
void resolve_pending_allows(LexedFile* file) {
  if (file->pending_allows.empty()) return;
  for (const AllowEntry& entry : file->pending_allows) {
    // Cover the first line holding any token after the comment line.
    int target = 0;
    for (const Token& t : file->tokens) {
      if (t.line > entry.comment_line) {
        target = t.line;
        break;
      }
    }
    if (target == 0) {
      file->bad_allows.emplace_back(entry.comment_line,
                                    "allow escape covers no code line");
      continue;
    }
    file->allows[target].push_back(entry);
  }
  file->pending_allows.clear();
}

}  // namespace

LexedFile lex_tokens(const std::string& src) {
  LexedFile out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool in_pp = false;           // inside a preprocessor directive line
  int code_tokens_on_line = 0;  // for allow-comment placement
  int current_line = 1;

  auto push = [&](Token::Kind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line, in_pp});
    if (line != current_line) {
      current_line = line;
      code_tokens_on_line = 0;
    }
    ++code_tokens_on_line;
  };

  auto newline = [&]() {
    ++line;
    in_pp = false;  // continuation lines are handled at the backslash
    code_tokens_on_line = 0;
  };

  while (i < n) {
    const char c = src[i];

    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Preprocessor continuation: backslash-newline keeps the directive open.
    if (c == '\\' && i + 1 < n && src[i + 1] == '\n') {
      const bool keep_pp = in_pp;
      newline();
      in_pp = keep_pp;
      i += 2;
      continue;
    }

    // Line comment (may carry an allow escape).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_allow_comment(src.substr(i + 2, end - i - 2), line,
                          code_tokens_on_line > 0, &out);
      i = end;
      continue;
    }

    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string::npos ? n : end;
      parse_allow_comment(src.substr(i + 2, stop - i - 2), line,
                          code_tokens_on_line > 0, &out);
      for (std::size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') newline();
      }
      i = end == std::string::npos ? n : end + 2;
      continue;
    }

    if (c == '#' && code_tokens_on_line == 0) {
      in_pp = true;
      push(Token::Kind::kPunct, "#");
      ++i;
      continue;
    }

    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t body = p + 1;
      std::size_t end = src.find(closer, body);
      if (end == std::string::npos) end = n;
      std::string contents = src.substr(body, end - body);
      for (char ch : contents) {
        if (ch == '\n') ++line;  // raw strings may span lines
      }
      push(Token::Kind::kString, std::move(contents));
      i = std::min(n, end + closer.size());
      continue;
    }

    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::string contents;
      std::size_t p = i + 1;
      while (p < n && src[p] != quote && src[p] != '\n') {
        if (src[p] == '\\' && p + 1 < n) {
          contents += src[p];
          contents += src[p + 1];
          p += 2;
          continue;
        }
        contents += src[p++];
      }
      push(quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::move(contents));
      i = p < n && src[p] == quote ? p + 1 : p;
      continue;
    }

    if (ident_start(c)) {
      std::size_t p = i;
      while (p < n && ident_char(src[p])) ++p;
      push(Token::Kind::kIdentifier, src.substr(i, p - i));
      i = p;
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t p = i;
      while (p < n && (ident_char(src[p]) || src[p] == '.' ||
                       ((src[p] == '+' || src[p] == '-') && p > i &&
                        (src[p - 1] == 'e' || src[p - 1] == 'E' ||
                         src[p - 1] == 'p' || src[p - 1] == 'P')))) {
        ++p;
      }
      push(Token::Kind::kNumber, src.substr(i, p - i));
      i = p;
      continue;
    }

    // Punctuation: combine the few multi-char tokens the rules care about.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      push(Token::Kind::kPunct, "::");
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      push(Token::Kind::kPunct, "->");
      i += 2;
      continue;
    }
    if (c == '<' && i + 1 < n && src[i + 1] == '<') {
      push(Token::Kind::kPunct, "<<");
      i += 2;
      continue;
    }
    if (c == '>' && i + 1 < n && src[i + 1] == '>') {
      push(Token::Kind::kPunct, ">>");
      i += 2;
      continue;
    }
    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }

  resolve_pending_allows(&out);
  return out;
}

}  // namespace tlc_lint
