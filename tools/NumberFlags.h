//===- tools/NumberFlags.h - Strict numeric command-line values ----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numeric flag parsing shared by the command-line tools. A value is taken
/// only when the whole text is one number inside the flag's range. Empty
/// text, trailing characters, overflow and out-of-range values print what
/// was wrong and the tool's usage message, then exit 2: nothing wraps
/// around or silently becomes 0.
///
//===----------------------------------------------------------------------===//

#ifndef DC_TOOLS_NUMBERFLAGS_H
#define DC_TOOLS_NUMBERFLAGS_H

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dc {

/// Prints a tool's usage message; \p Argv0 is the program name.
using UsageFn = void (*)(const char *Argv0);

/// \p Flag's value \p Text as a whole decimal integer in [Min, Max].
inline long long parseNumber(const char *Argv0, UsageFn Usage,
                             const char *Flag, const char *Text,
                             long long Min, long long Max) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || V < Min ||
      V > Max) {
    std::fprintf(stderr,
                 "error: %s takes an integer in [%lld, %lld], got '%s'\n",
                 Flag, Min, Max, Text);
    Usage(Argv0);
    std::exit(2);
  }
  return V;
}

/// \p Flag's value \p Text as a finite decimal number in [Min, Max].
inline double parseReal(const char *Argv0, UsageFn Usage, const char *Flag,
                        const char *Text, double Min, double Max) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE || !std::isfinite(V) ||
      V < Min || V > Max) {
    std::fprintf(stderr, "error: %s takes a number in [%g, %g], got '%s'\n",
                 Flag, Min, Max, Text);
    Usage(Argv0);
    std::exit(2);
  }
  return V;
}

} // namespace dc

#endif // DC_TOOLS_NUMBERFLAGS_H
