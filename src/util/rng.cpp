#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace sent::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a over a label, used to perturb substream seeds.
std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::substream(std::string_view label) const {
  // Mix the current state with the label hash; the substream does not
  // advance this stream.
  std::uint64_t mixed = s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[3], 41);
  return Rng(mixed ^ hash_label(label));
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::below(std::uint64_t bound) {
  SENT_REQUIRE(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SENT_REQUIRE(lo <= hi);
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SENT_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  SENT_REQUIRE(mean > 0.0);
  double u = uniform();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double u2 = uniform();
  double z = std::sqrt(-2.0 * std::log(u1)) *
             std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

}  // namespace sent::util
