// tlc_lint — project-invariant static analysis for the TLC reproduction.
//
// Enforces the five rule families in rules.hpp over src/ (or any explicit
// path list), resolving `// tlc-lint: allow(<rule>): <reason>` escapes, and
// exits non-zero when any non-allowlisted finding remains.
//
//   tlc_lint [--root DIR] [--json] [--verbose]
//            [--disable RULE[,RULE...]] [--list-rules] [paths...]
//
// Every file is tokenized by the built-in token scanner (lexer.hpp).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli.hpp"
#include "lexer.hpp"
#include "obs/json.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  std::string root = ".";
  bool json = false;
  bool verbose = false;
  std::set<std::string> disabled;
  std::vector<std::string> paths;
};

constexpr const char* kUsage =
    "usage: tlc_lint [--root DIR] [--json] [--verbose]\n"
    "                [--disable RULE[,RULE...]] [--list-rules] [paths...]\n"
    "\n"
    "Scans DIR/src (default) or the given files/directories and reports\n"
    "`file:line rule message` findings. Exit status 1 when any\n"
    "non-allowlisted finding remains, 2 on usage errors.\n";

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

/// Expands files/directories into a sorted, deduplicated list of absolute
/// source paths.
std::vector<fs::path> collect_files(const Options& opt) {
  std::vector<fs::path> files;
  std::vector<fs::path> roots;
  if (opt.paths.empty()) {
    roots.push_back(fs::path(opt.root) / "src");
  } else {
    for (const std::string& p : opt.paths) roots.emplace_back(p);
  }
  for (const fs::path& r : roots) {
    std::error_code ec;
    if (fs::is_directory(r, ec)) {
      for (auto it = fs::recursive_directory_iterator(r, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(fs::absolute(it->path()));
        }
      }
    } else if (fs::is_regular_file(r, ec) && lintable(r)) {
      files.push_back(fs::absolute(r));
    } else {
      std::cerr << "tlc_lint: warning: skipping '" << r.string()
                << "' (not a file or directory)\n";
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Root-relative, '/'-separated path — the form the path-keyed rules and
/// all output use.
std::string relative_to_root(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  const fs::path& use = (ec || rel.empty()) ? file : rel;
  return use.generic_string();
}

/// `s` as a quoted, escaped JSON string.
std::string quoted(const std::string& s) {
  std::string out;
  tlc::obs::append_json_string(&out, s);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool list_rules = false;
  tlc::tools::Cli cli{"tlc_lint", kUsage};
  cli.text("--root", &opt.root);
  cli.flag("--json", [&opt] { opt.json = true; });
  cli.flag("--verbose", [&opt] { opt.verbose = true; });
  cli.option("--disable", [&opt](const char* list) {
    std::stringstream ss{std::string(list)};
    std::string rule;
    const auto& ids = tlc_lint::rule_ids();
    while (std::getline(ss, rule, ',')) {
      if (rule.empty()) continue;
      if (std::find(ids.begin(), ids.end(), rule) == ids.end()) return false;
      opt.disabled.insert(rule);
    }
    return true;
  });
  cli.flag("--list-rules", [&list_rules] { list_rules = true; });
  cli.positionals(&opt.paths);
  cli.parse(argc, argv);
  if (list_rules) {
    for (const std::string& id : tlc_lint::rule_ids()) {
      std::cout << id << "\n";
    }
    return 0;
  }

  const fs::path root = fs::absolute(opt.root);
  const std::vector<fs::path> files = collect_files(opt);

  std::vector<tlc_lint::Finding> findings;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "tlc_lint: cannot read '" << file.string() << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const tlc_lint::LexedFile lex = tlc_lint::lex_tokens(buf.str());

    const std::string rel = relative_to_root(file, root);
    std::vector<tlc_lint::Finding> file_findings =
        tlc_lint::run_rules(rel, lex, opt.disabled);

    // Resolve allow escapes: a finding is allowlisted when an escape for
    // its rule covers its line. Escapes naming unknown rules are flagged.
    for (tlc_lint::Finding& f : file_findings) {
      const auto it = lex.allows.find(f.line);
      if (it == lex.allows.end()) continue;
      for (const tlc_lint::AllowEntry& a : it->second) {
        if (a.rule == f.rule) {
          f.allowed = true;
          f.reason = a.reason;
          break;
        }
      }
    }
    for (const auto& [line, entries] : lex.allows) {
      for (const tlc_lint::AllowEntry& a : entries) {
        const auto& ids = tlc_lint::rule_ids();
        if (std::find(ids.begin(), ids.end(), a.rule) == ids.end()) {
          file_findings.push_back(tlc_lint::Finding{
              rel, a.comment_line, "allow-syntax",
              "allow escape names unknown rule '" + a.rule + "'",
              /*allowed=*/false, /*reason=*/{}});
        }
      }
    }
    for (const auto& [line, message] : lex.bad_allows) {
      file_findings.push_back(tlc_lint::Finding{
          rel, line, "allow-syntax", message, /*allowed=*/false,
          /*reason=*/{}});
    }

    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  std::sort(findings.begin(), findings.end(),
            [](const tlc_lint::Finding& a, const tlc_lint::Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  std::size_t blocking = 0;
  for (const tlc_lint::Finding& f : findings) {
    if (!f.allowed) ++blocking;
  }

  if (opt.json) {
    std::cout << "{\n  \"files_scanned\": " << files.size() << ",\n"
              << "  \"blocking\": " << blocking << ",\n  \"findings\": [";
    bool first = true;
    for (const tlc_lint::Finding& f : findings) {
      std::cout << (first ? "\n" : ",\n") << "    {\"file\": " << quoted(f.file)
                << ", \"line\": " << f.line << ", \"rule\": " << quoted(f.rule)
                << ", \"allowed\": " << (f.allowed ? "true" : "false")
                << ", \"message\": " << quoted(f.message);
      if (f.allowed) std::cout << ", \"reason\": " << quoted(f.reason);
      std::cout << "}";
      first = false;
    }
    std::cout << (first ? "" : "\n  ") << "]\n}\n";
  } else {
    for (const tlc_lint::Finding& f : findings) {
      if (f.allowed && !opt.verbose) continue;
      std::cout << f.file << ":" << f.line << " " << f.rule << " "
                << f.message;
      if (f.allowed) std::cout << " [allowed: " << f.reason << "]";
      std::cout << "\n";
    }
    if (opt.verbose || blocking > 0) {
      std::cerr << "tlc_lint: " << files.size() << " files, " << blocking
                << " blocking finding" << (blocking == 1 ? "" : "s")
                << "\n";
    }
  }

  return blocking == 0 ? 0 : 1;
}
