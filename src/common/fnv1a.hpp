// FNV-1a/64 over length-delimited chunks: the service's result-cache job
// digest (program bytes + canonical effective-config rendering) and the
// bench reports' config_digest. Each chunk is terminated by a 0xff
// sentinel so concatenation ambiguity cannot alias two different inputs
// ("ab"+"c" and "a"+"bc" hash apart).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace steersim {

class Fnv1a {
 public:
  Fnv1a& mix(std::string_view chunk) {
    for (const char c : chunk) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
    hash_ ^= 0xff;
    hash_ *= 1099511628211ull;
    return *this;
  }
  std::uint64_t value() const { return hash_; }
  /// 16 lowercase hex digits.
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace steersim
