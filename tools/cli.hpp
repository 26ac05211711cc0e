// The one front end for operator input: every executable that reads flags
// declares them on a Cli and hands it the whole command line once, before
// any scenario, plan or thread starts.
//
//   * `--name=value` and `--name value` both work; a switch takes no value;
//     an argument that does not start with '-', or is exactly "-", is a
//     positional.
//   * A count is the whole argument in decimal digits (no sign, space,
//     suffix or exponent) in its flag's range; a real is the whole argument
//     as a finite number in its flag's range.
//   * `--help` prints the usage to stdout and exits 0. An unknown flag, a
//     missing value or a bad value prints what went wrong, naming the flag,
//     and the usage to stderr, and exits 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/threads.hpp"

namespace tlc::tools {

/// The whole of `text` as a decimal integer in [min, max] (min ≥ 0), or
/// nullopt.
template <class T>
std::optional<T> parse_count(const char* text, T min, T max) {
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      n < static_cast<unsigned long long>(min) ||
      n > static_cast<unsigned long long>(max)) {
    return std::nullopt;
  }
  return static_cast<T>(n);
}

/// The whole of `text` as a finite number in [min, max], or nullopt.
inline std::optional<double> parse_real(const char* text, double min,
                                        double max) {
  if (text[0] == '\0' ||
      std::isspace(static_cast<unsigned char>(text[0])) != 0) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(v) || v < min || v > max) {
    return std::nullopt;
  }
  return v;
}

class Cli {
 public:
  /// `tool` prefixes every error; `usage` follows --help and every error.
  Cli(std::string tool, std::string usage)
      : tool_(std::move(tool)), usage_(std::move(usage)) {}

  /// A flag that takes a value; `apply` returns false when it is bad.
  void option(std::string name, std::function<bool(const char*)> apply) {
    specs_.push_back(Spec{std::move(name), true, std::move(apply)});
  }
  /// A switch; `on` runs each time it is given.
  void flag(std::string name, std::function<void()> on) {
    specs_.push_back(Spec{std::move(name), false,
                          [on = std::move(on)](const char*) {
                            on();
                            return true;
                          }});
  }
  void text(std::string name, std::string* out) {
    option(std::move(name), [out](const char* v) {
      *out = v;
      return true;
    });
  }
  template <class T>
  void count(std::string name, T* out, std::type_identity_t<T> min = 0,
             std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    option(std::move(name), [out, min, max](const char* v) {
      const std::optional<T> n = parse_count<T>(v, min, max);
      if (n) *out = *n;
      return n.has_value();
    });
  }
  void real(std::string name, double* out,
            double min = -std::numeric_limits<double>::infinity(),
            double max = std::numeric_limits<double>::infinity()) {
    option(std::move(name), [out, min, max](const char* v) {
      const std::optional<double> x = parse_real(v, min, max);
      if (x) *out = *x;
      return x.has_value();
    });
  }
  /// `--jobs N`, else the TLC_JOBS environment variable, each a count in
  /// [1, kMaxThreads]; *out keeps its value (0: every core, in
  /// exp::resolve_jobs) when neither is given.
  void jobs(int* out) {
    jobs_ = out;
    count("--jobs", out, 1, static_cast<int>(kMaxThreads));
  }
  /// Collects the positionals in order; without this, one exits 2.
  void positionals(std::vector<std::string>* out) { positionals_ = out; }

  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      if (arg == "--help") {
        std::fputs(usage_.c_str(), stdout);
        std::exit(0);
      }
      if (arg.empty() || arg[0] != '-' || arg == "-") {
        if (positionals_ == nullptr) {
          fail("unexpected argument '" + std::string{arg} + "'");
        }
        positionals_->emplace_back(arg);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name{arg.substr(0, eq)};
      Spec* spec = find(name);
      if (spec == nullptr) fail("unknown option '" + name + "'");
      spec->given = true;
      const char* value = nullptr;
      if (!spec->takes_value) {
        if (eq != std::string_view::npos) fail(name + " takes no value");
      } else if (eq != std::string_view::npos) {
        value = argv[i] + eq + 1;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        fail(name + " needs a value");
      }
      if (!spec->apply(value)) {
        fail("bad value for " + name + ": '" + value + "'");
      }
    }
    if (jobs_ != nullptr && !find("--jobs")->given) {
      if (const char* env = std::getenv("TLC_JOBS")) {
        const std::optional<int> n =
            parse_count(env, 1, static_cast<int>(kMaxThreads));
        if (!n) fail("bad value for TLC_JOBS: '" + std::string{env} + "'");
        *jobs_ = *n;
      }
    }
  }

  /// Prints `what` and the usage to stderr and exits 2 (for checks across
  /// flags, made once parse() has returned).
  [[noreturn]] void fail(const std::string& what) const {
    std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), what.c_str(),
                 usage_.c_str());
    std::exit(2);
  }

 private:
  struct Spec {
    std::string name;
    bool takes_value;
    std::function<bool(const char*)> apply;
    bool given = false;
  };

  Spec* find(const std::string& name) {
    for (Spec& s : specs_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  std::string tool_;
  std::string usage_;
  std::vector<Spec> specs_;
  std::vector<std::string>* positionals_ = nullptr;
  int* jobs_ = nullptr;
};

/// The whole command line of a paper-figure sweep bench, whose one flag is
/// its worker count (Cli::jobs).
inline int sweep_jobs(int argc, char** argv, const std::string& tool) {
  int jobs = 0;
  Cli cli{tool, "usage: " + tool + " [--jobs N]\n  N worker threads, 1 to " +
                    std::to_string(kMaxThreads) +
                    " (default: TLC_JOBS, else every core)\n"};
  cli.jobs(&jobs);
  cli.parse(argc, argv);
  return jobs;
}

}  // namespace tlc::tools
