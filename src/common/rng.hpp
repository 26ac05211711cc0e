// Deterministic random number generation.
//
// Every stochastic component (radio fading, packet drops, selfish claim
// sampling) draws from an explicitly seeded Rng so experiments are exactly
// reproducible; there is no hidden global generator.
#pragma once

#include <cstdint>
#include <random>

namespace tlc {

/// xoshiro256** — fast, high-quality, and stable across platforms
/// (std::mt19937 streams are also portable, but xoshiro is ~4x faster and
/// the state is trivially copyable for snapshotting simulations).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return ~static_cast<result_type>(0);
  }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli trial.
  bool chance(double probability);
  /// Normal with given mean/stddev.
  double normal(double mean, double stddev);
  /// Exponential with given mean (mean > 0).
  double exponential(double mean);

  /// Derive an independent child stream (for per-component seeding).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// splitmix64 finalizer: bijective 64-bit mix with full avalanche — the
/// output of a splitmix64 generator whose state was `x` before the step.
/// The one mixing primitive for seed and id derivation (Rng seeding,
/// exp::mix_seed, the fleet's per-device streams, fault plans, trace ids).
[[nodiscard]] constexpr std::uint64_t stream_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// stream_seed(seed, index) for a caller that holds
/// `mixed_seed == stream_mix64(seed)`: one mix per stream instead of two
/// when many streams share a seed (the fleet recomputes each device's
/// stream from its id rather than storing it).
[[nodiscard]] constexpr std::uint64_t stream_seed_mixed(
    std::uint64_t mixed_seed, std::uint64_t index) {
  return stream_mix64(mixed_seed ^ stream_mix64(~index));
}

/// Seed of independent stream `index` derived from `seed`. Both arguments
/// go through a full stream_mix64 round, so stream 7 of seed 1 and stream 0
/// of seed 8 are unrelated — never derive stream seeds as `seed + index`
/// (adjacent seeds would alias entire stream families).
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t seed,
                                                  std::uint64_t index) {
  return stream_seed_mixed(stream_mix64(seed), index);
}

/// The k-th output of the splitmix64 sequence seeded `stream`. A
/// counter-based draw: no generator state to store or walk, so a million
/// per-device streams cost no memory (the fleet recomputes each seed with
/// stream_seed_mixed) and any draw is O(1) random access — the property
/// the sharded fleet uses to keep per-device randomness independent of
/// shard count. Inline: the fleet kernel makes four draws per burst.
[[nodiscard]] constexpr std::uint64_t stream_draw(std::uint64_t stream,
                                                  std::uint64_t k) {
  // The state of a splitmix64 generator seeded `stream` before draw k is
  // stream + k·golden; stream_mix64 adds the final golden increment.
  return stream_mix64(stream + k * 0x9e3779b97f4a7c15ULL);
}

/// stream_draw mapped to a double in [0, 1) (53 mantissa bits).
[[nodiscard]] constexpr double stream_unit(std::uint64_t stream,
                                           std::uint64_t k) {
  return static_cast<double>(stream_draw(stream, k) >> 11) * 0x1.0p-53;
}

}  // namespace tlc
