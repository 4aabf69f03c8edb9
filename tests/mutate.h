// The byte mutator shared by the seeded fuzzers (tests/*_fuzz_test.cc).

#ifndef MPFDB_TESTS_MUTATE_H_
#define MPFDB_TESTS_MUTATE_H_

#include <string>

#include "util/rng.h"

namespace mpfdb {

// Applies one to four random edits: bit flips, bytes drawn from
// `interesting`, inserts, deletions, duplicated ranges and truncation.
inline std::string Mutate(std::string bytes, const std::string& interesting,
                          Rng& rng) {
  const int edits = static_cast<int>(rng.UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const size_t size = bytes.size();
    const size_t pos =
        size == 0 ? 0 : static_cast<size_t>(rng.UniformInt(0, size - 1));
    switch (rng.UniformInt(0, 5)) {
      case 0:
        if (size > 0) {
          bytes[pos] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
        }
        break;
      case 1:
        if (size > 0) {
          bytes[pos] = interesting[rng.UniformInt(0, interesting.size() - 1)];
        }
        break;
      case 2:
        bytes.insert(bytes.begin() + pos,
                     static_cast<char>(rng.UniformInt(0, 255)));
        break;
      case 3:
        bytes.erase(pos, static_cast<size_t>(rng.UniformInt(1, 8)));
        break;
      case 4: {
        std::string chunk = bytes.substr(pos, rng.UniformInt(1, 16));
        bytes.insert(static_cast<size_t>(rng.UniformInt(0, bytes.size())),
                     chunk);
        break;
      }
      default:
        bytes.resize(static_cast<size_t>(rng.UniformInt(0, size)));
        break;
    }
  }
  return bytes;
}

}  // namespace mpfdb

#endif  // MPFDB_TESTS_MUTATE_H_
