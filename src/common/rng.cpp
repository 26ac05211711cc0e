#include "common/rng.hpp"

#include <cmath>

namespace tlc {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One splitmix64 generator step: seeds the xoshiro state from a single
/// 64-bit value.
std::uint64_t splitmix64(std::uint64_t& state) {
  const std::uint64_t out = stream_mix64(state);
  state += 0x9e3779b97f4a7c15ULL;
  return out;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 bits of mantissa from the top of the output.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) return lo;
  const std::uint64_t range = hi - lo + 1;
  // Modulo bias is negligible for range << 2^64 (our use cases), but use
  // rejection sampling anyway: correctness is cheap here.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return lo + draw % range;
}

bool Rng::chance(double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform() < probability;
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller; one value per call keeps the stream position predictable.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

Rng Rng::fork() { return Rng{(*this)()}; }

}  // namespace tlc
