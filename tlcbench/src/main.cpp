// bench_tlc — the end-to-end settlement benchmark.
//
//   bench_tlc --workload W --seed S [--seconds N] [--trace [0|1]]
//             [--trace-dir DIR]
//   bench_tlc --smoke [--miscount-rejects]
//
// One workload per process. Prints the notes and every metric as
// `name value unit`, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace. Exits 1 when a correctness
// gate fails and 2 on a usage error. --smoke runs every workload at tiny
// sizes, untraced and traced, with all gates on.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace tlcbench;

struct Workload {
  const char* name;
  Report (*run)(const RunSpec&);
};

constexpr Workload kWorkloads[] = {
    {"fleet_batch", run_fleet_batch},
    {"fleet_serve", run_fleet_serve},
    {"serve_open_loop", run_serve_open_loop},
    {"audit_batched", run_audit_batched},
    {"paper_grid", run_paper_grid},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_tlc: %s\n"
               "usage: bench_tlc --workload W --seed S [--seconds N] "
               "[--trace [0|1]] [--trace-dir DIR]\n"
               "       bench_tlc --smoke [--miscount-rejects]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Checks the report against the catalog and prints it. Returns true when
/// every gate passed.
bool emit(const Report& rep, bool traced) {
  const std::vector<MetricDef>& defs =
      traced ? per_layer_metrics() : end_to_end_metrics();
  std::vector<std::string> failures = rep.gate_failures;
  std::string json = "{";
  bool first = true;
  std::printf("# cpus (hardware_concurrency): %u\n",
              std::thread::hardware_concurrency());
  for (const std::string& line : rep.notes) std::printf("# %s\n", line.c_str());
  for (const MetricDef& def : defs) {
    double value = 0.0;
    const auto it = rep.metrics.find(def.name);
    if (it != rep.metrics.end()) {
      value = it->second;
    } else if (!traced) {
      failures.push_back(std::string("metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      failures.push_back(std::string("metric not finite: ") + def.name);
      value = 0.0;
    }
    std::printf("%s %.17g %s\n", def.name, value, def.unit);
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buf;
    first = false;
  }
  json += "}";
  std::map<std::string, int> repeats;
  for (const std::string& f : failures) ++repeats[f];
  for (const auto& [what, times] : repeats) {
    std::printf("GATE FAILED: %s (%d times)\n", what.c_str(), times);
  }
  const bool correct = failures.empty() && rep.failed == 0;
  const std::uint64_t attempted = rep.attempted == 0 ? 1 : rep.attempted;
  const std::uint64_t failed =
      correct ? rep.failed : std::max<std::uint64_t>(rep.failed, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

std::uint64_t name_hash(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

int run_smoke(RunSpec spec) {
  spec.smoke = true;
  spec.seconds = 0.05;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool traced : {false, true}) {
      spec.trace = traced;
      spec.trace_id = derive_seed(spec.seed, name_hash(w.name));
      std::printf("## smoke %s (%s)\n", w.name, traced ? "traced" : "untraced");
      ok = emit(w.run(spec), traced) && ok;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  const char* workload = nullptr;
  bool smoke = false;
  bool have_seed = false;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      spec.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      spec.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      spec.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        spec.trace = argv[++i][0] == '1';
      }
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--miscount-rejects") {
      spec.reject_skew = 1;
    } else {
      const std::string why =
          "unknown or incomplete argument: " + std::string(arg);
      return usage(why.c_str());
    }
  }
  if (smoke) return run_smoke(spec);
  if (workload == nullptr) return usage("--workload is required");
  if (!have_seed) return usage("--seed is required");
  if (!(spec.seconds > 0.0 && spec.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown workload");
  spec.trace_id = derive_seed(spec.seed, name_hash(w->name));
  if (!trace_dir.empty()) {
    spec.trace_out = trace_dir + "/" + w->name + "-" +
                     std::to_string(spec.seed) + ".jsonl";
  }
  return emit(w->run(spec), spec.trace) ? 0 : 1;
}
