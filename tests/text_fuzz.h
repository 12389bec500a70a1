#ifndef RAINBOW_TESTS_TEXT_FUZZ_H_
#define RAINBOW_TESTS_TEXT_FUZZ_H_

// Seeded mutator for the hostile-input tests of the text parsers (config
// files, fault scripts): the same byte-level damage a hand edit, a bad
// copy or a truncated download does to a file.

#include <cstdint>
#include <string>

#include "common/rng.h"

namespace rainbow {

/// Applies 1-4 random edits to `text`: flip one bit of a byte, delete a
/// run of up to 8 bytes, or insert a byte. Half the inserted bytes come
/// from the parsers' own syntax (digits, separators, newlines) so that
/// mutants reach past the first token; the rest are arbitrary.
inline std::string MutateText(std::string text, Rng& rng) {
  static const std::string kSyntax = "0123456789=[]|,-.# \n";
  for (uint64_t i = 0, n = 1 + rng.NextUint(4); i < n; ++i) {
    switch (rng.NextUint(3)) {
      case 0:
        if (text.empty()) break;
        text[rng.NextUint(text.size())] ^=
            static_cast<char>(1u << rng.NextUint(8));
        break;
      case 1:
        if (text.empty()) break;
        text.erase(rng.NextUint(text.size()), 1 + rng.NextUint(8));
        break;
      default: {
        char c = rng.NextBool(0.5)
                     ? kSyntax[rng.NextUint(kSyntax.size())]
                     : static_cast<char>(rng.NextUint(256));
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                       rng.NextUint(text.size() + 1)),
                    c);
        break;
      }
    }
  }
  return text;
}

}  // namespace rainbow

#endif  // RAINBOW_TESTS_TEXT_FUZZ_H_
