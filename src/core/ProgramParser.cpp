//===- core/ProgramParser.cpp - S-expression parser for programs ----------===//

#include "core/ProgramParser.h"
#include "core/Primitives.h"

#include <algorithm>
#include <cctype>
#include <charconv>

using namespace dc;

namespace {

/// Recursive-descent parser over a flat character buffer. Both the
/// parser's own recursion and the depth of the program it builds are
/// capped, so hostile input fails with an error instead of exhausting the
/// stack here or in the recursive passes that later walk the program.
class Parser {
public:
  Parser(const std::string &Src, std::string *ErrorOut)
      : Src(Src), ErrorOut(ErrorOut) {}

  ExprPtr run() {
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    skipSpace();
    if (Pos != Src.size())
      return error("trailing characters after program");
    return E;
  }

private:
  ExprPtr error(const std::string &Msg) {
    if (ErrorOut && ErrorOut->empty())
      *ErrorOut = Msg + " at offset " + std::to_string(Pos);
    return nullptr;
  }

  void skipSpace() {
    while (Pos < Src.size() && std::isspace(static_cast<unsigned char>(Src[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Src.size() && Src[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  /// Reads an atom: a maximal run of non-space, non-paren characters.
  /// Atoms beginning with a single quote extend to the closing quote so
  /// character-constant primitives like ' ' and ')' parse.
  std::string readAtom() {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Src.size() && Src[Pos] == '\'') {
      ++Pos;
      while (Pos < Src.size() && Src[Pos] != '\'')
        ++Pos;
      if (Pos < Src.size())
        ++Pos; // consume the closing quote
      return Src.substr(Start, Pos - Start);
    }
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (std::isspace(static_cast<unsigned char>(C)) || C == '(' ||
          C == ')')
        break;
      ++Pos;
    }
    return Src.substr(Start, Pos - Start);
  }

  /// Parses one expression and records its syntax-tree depth in
  /// LastDepth (inventions count as depth 1, like Expr::depth()).
  ExprPtr parseExpr() {
    if (Nesting >= MaxProgramDepth)
      return error("program nested deeper than " +
                   std::to_string(MaxProgramDepth));
    ++Nesting;
    ExprPtr E = parseNested();
    --Nesting;
    return E;
  }

  ExprPtr parseNested() {
    skipSpace();
    if (Pos >= Src.size())
      return error("unexpected end of input");
    LastDepth = 1;

    // Invention: #BODY where BODY is parenthesized, e.g. #(lambda (+ $0 1)).
    if (Src[Pos] == '#') {
      ++Pos;
      skipSpace();
      if (Pos >= Src.size() || Src[Pos] != '(')
        return error("expected '(' after '#'");
      ExprPtr Body = parseExpr();
      if (!Body)
        return nullptr;
      if (!Body->isClosed())
        return error("invention body has free variables");
      if (!Body->inferType())
        return error("invention body is ill-typed");
      LastDepth = 1;
      return Expr::invented(Body);
    }

    // Parenthesized: abstraction or application.
    if (Src[Pos] == '(') {
      ++Pos;
      skipSpace();
      // Peek the head atom to detect lambda.
      size_t Save = Pos;
      std::string Head = readAtom();
      if (Head == "lambda" || Head == "\xce\xbb" /* λ */) {
        ExprPtr Body = parseExpr();
        if (!Body)
          return nullptr;
        if (!consume(')'))
          return error("expected ')' closing lambda");
        ++LastDepth;
        return Expr::abstraction(Body);
      }
      Pos = Save; // not a lambda; reparse head as an expression
      ExprPtr Fn = parseExpr();
      if (!Fn)
        return nullptr;
      // Each argument adds one application node above the head.
      int Depth = LastDepth;
      std::vector<ExprPtr> Args;
      while (true) {
        skipSpace();
        if (Pos >= Src.size())
          return error("unterminated application");
        if (Src[Pos] == ')') {
          ++Pos;
          break;
        }
        ExprPtr A = parseExpr();
        if (!A)
          return nullptr;
        Depth = std::max(Depth, LastDepth) + 1;
        if (Depth > MaxProgramDepth)
          return error("program nested deeper than " +
                       std::to_string(MaxProgramDepth));
        Args.push_back(A);
      }
      if (Args.empty())
        return error("application needs at least one argument");
      LastDepth = Depth;
      return Expr::applications(Fn, Args);
    }

    if (Src[Pos] == ')')
      return error("unexpected ')'");

    // Atom: index or primitive.
    std::string Atom = readAtom();
    if (Atom.empty())
      return error("empty atom");
    if (Atom[0] == '$') {
      for (size_t I = 1; I < Atom.size(); ++I)
        if (!std::isdigit(static_cast<unsigned char>(Atom[I])))
          return error("malformed de Bruijn index '" + Atom + "'");
      if (Atom.size() == 1)
        return error("malformed de Bruijn index '$'");
      int Index = 0;
      if (!parseWhole(Atom.substr(1), Index))
        return error("de Bruijn index out of range '" + Atom + "'");
      return Expr::index(Index);
    }
    if (ExprPtr P = lookupPrimitive(Atom))
      return P;
    // Integer literals auto-register as int constants for convenience.
    bool IsInt = !Atom.empty() &&
                 (std::isdigit(static_cast<unsigned char>(Atom[0])) ||
                  (Atom[0] == '-' && Atom.size() > 1));
    if (IsInt) {
      for (size_t I = 1; I < Atom.size(); ++I)
        IsInt = IsInt && std::isdigit(static_cast<unsigned char>(Atom[I]));
      if (IsInt) {
        long Value = 0;
        if (!parseWhole(Atom, Value))
          return error("integer literal out of range '" + Atom + "'");
        return intPrimitive(Value);
      }
    }
    return error("unknown primitive '" + Atom + "'");
  }

  /// Parses all of \p Digits (an optional '-' then decimal digits) into
  /// \p Out; false when the value does not fit its type.
  template <typename T> static bool parseWhole(const std::string &Digits,
                                               T &Out) {
    const char *End = Digits.data() + Digits.size();
    auto [Ptr, Ec] = std::from_chars(Digits.data(), End, Out);
    return Ec == std::errc() && Ptr == End;
  }

  const std::string &Src;
  std::string *ErrorOut;
  size_t Pos = 0;
  int Nesting = 0;   ///< parseExpr() calls currently active
  int LastDepth = 0; ///< depth of the expression parseExpr() last returned
};

} // namespace

ExprPtr dc::parseProgram(const std::string &Source, std::string *ErrorOut) {
  if (ErrorOut)
    ErrorOut->clear();
  Parser P(Source, ErrorOut);
  return P.run();
}
