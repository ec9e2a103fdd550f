// FNV-1a 64 over output bytes: the benchmark's own digest, independent of
// the program's hashing so digests stay comparable across versions.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace sentbench {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace sentbench
