// Fleet settlement throughput — settled UE-cycles per second and ns per
// UE-cycle vs shard count for the cell-range walk (exp::run_fleet).
//
// Runs one fixed-seed fleet scenario (default 1M devices) once per
// requested shard count, verifies every run's fingerprint is
// byte-identical to the first (the determinism guarantee the range walk
// is built on), and reports UE-cycles/s, ns per UE-cycle, and the speedup
// of each shard count over the first — to stdout and to BENCH_fleet.json
// in the working directory. Exits non-zero on any fingerprint mismatch.
//
// Knobs: --devices N, --cycles N, --devices-per-cell N, --seed N,
// --shards A,B,C (default 1,2,4,8; an entry of 0 resolves through
// exp::resolve_shards).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exp/fleet.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

struct Options {
  std::size_t devices = 1'000'000;
  std::uint32_t devices_per_cell = 200;
  std::uint32_t cycles = 2;
  std::uint64_t seed = 42;
  std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
};

std::vector<std::uint32_t> parse_shard_list(const char* text) {
  std::vector<std::uint32_t> out;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(v <= 0 ? resolve_shards(0)
                         : static_cast<std::uint32_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = want("--devices")) {
      opt.devices = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v2 = want("--devices-per-cell")) {
      opt.devices_per_cell =
          static_cast<std::uint32_t>(std::strtoul(v2, nullptr, 10));
    } else if (const char* v3 = want("--cycles")) {
      opt.cycles = static_cast<std::uint32_t>(std::strtoul(v3, nullptr, 10));
    } else if (const char* v4 = want("--seed")) {
      opt.seed = std::strtoull(v4, nullptr, 10);
    } else if (const char* v5 = want("--shards")) {
      const auto list = parse_shard_list(v5);
      if (!list.empty()) opt.shard_counts = list;
    }
  }
  return opt;
}

struct Timing {
  std::uint32_t shards = 0;
  double seconds = 0.0;
  std::string fingerprint;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const unsigned cpus = std::thread::hardware_concurrency();
  const auto ue_cycles =
      static_cast<double>(opt.devices) * static_cast<double>(opt.cycles);

  FleetConfig cfg;
  cfg.devices = opt.devices;
  cfg.devices_per_cell = opt.devices_per_cell;
  cfg.cycles = opt.cycles;
  cfg.seed = opt.seed;

  std::printf("## Fleet settlement: %zu devices, %u cycles, %u cpus\n\n",
              opt.devices, opt.cycles, cpus);

  std::vector<Timing> rows;
  bool identical = true;
  for (const std::uint32_t shards : opt.shard_counts) {
    cfg.shards = shards;
    const auto start = std::chrono::steady_clock::now();
    const FleetResult result = run_fleet(cfg);
    const auto stop = std::chrono::steady_clock::now();
    Timing t;
    t.shards = result.shards;
    t.seconds = std::chrono::duration<double>(stop - start).count();
    t.fingerprint = fleet_fingerprint(result);
    const bool same =
        rows.empty() || t.fingerprint == rows.front().fingerprint;
    identical = identical && same;
    std::printf("shards %2u: %7.3f s  %11.0f UE-cycles/s  %7.1f ns/UE-cycle"
                "  gap %.2f%%  %s\n",
                t.shards, t.seconds, ue_cycles / t.seconds,
                t.seconds * 1e9 / ue_cycles,
                100.0 * static_cast<double>(result.gap_dl) /
                    static_cast<double>(result.charged_dl),
                same ? "identical" : "MISMATCH");
    rows.push_back(std::move(t));
  }

  const Timing& base = rows.front();
  double best_speedup = 0.0;
  for (const Timing& t : rows) {
    const double speedup = t.seconds > 0 ? base.seconds / t.seconds : 0.0;
    if (speedup > best_speedup) best_speedup = speedup;
  }
  std::printf("\nresults byte-identical across shard counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::FILE* out = std::fopen("BENCH_fleet.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"devices\": %zu,\n"
                 "  \"cycles\": %u,\n"
                 "  \"cpus\": %u,\n"
                 "  \"ue_cycles_per_run\": %.0f,\n",
                 opt.devices, opt.cycles, cpus, ue_cycles);
    for (const Timing& t : rows) {
      std::fprintf(out,
                   "  \"shard%u_seconds\": %.6f,\n"
                   "  \"shard%u_ue_cycles_per_sec\": %.1f,\n"
                   "  \"shard%u_ns_per_ue_cycle\": %.2f,\n"
                   "  \"speedup_%ushard\": %.4f,\n",
                   t.shards, t.seconds, t.shards, ue_cycles / t.seconds,
                   t.shards, t.seconds * 1e9 / ue_cycles, t.shards,
                   t.seconds > 0 ? base.seconds / t.seconds : 0.0);
    }
    std::fprintf(out,
                 "  \"best_speedup\": %.4f,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 best_speedup, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_fleet.json\n");
  } else {
    std::perror("BENCH_fleet.json");
  }
  return identical ? 0 : 1;
}
