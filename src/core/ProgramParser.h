//===- core/ProgramParser.h - S-expression parser for programs ------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the s-expression syntax produced by Expr::show():
///
///   $3                      de Bruijn index
///   map                     primitive (must be registered)
///   (lambda BODY)           abstraction (λ also accepted)
///   (F X Y ...)             curried application
///   #(BODY)                 invented library routine
///
/// Returns nullptr on malformed input, unknown primitive names, or programs
/// nested deeper than MaxProgramDepth.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_PROGRAMPARSER_H
#define DC_CORE_PROGRAMPARSER_H

#include "core/Program.h"

namespace dc {

/// Deepest program parseProgram() accepts: a bound on both paren nesting
/// and the depth of the resulting syntax tree (a long argument list nests
/// one application node per argument). Learned programs stay far below it.
constexpr int MaxProgramDepth = 1000;

/// Parses \p Source into an interned program; nullptr on failure. When
/// \p ErrorOut is non-null, a human-readable diagnostic is stored on failure.
ExprPtr parseProgram(const std::string &Source,
                     std::string *ErrorOut = nullptr);

} // namespace dc

#endif // DC_CORE_PROGRAMPARSER_H
