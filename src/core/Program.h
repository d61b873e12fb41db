//===- core/Program.h - Hash-consed lambda calculus programs --------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Programs are immutable, hash-consed syntax trees of a typed λ-calculus in
/// de Bruijn notation, matching Definition 3.1 of the paper (minus the
/// version-space constructors, which live in vs/VersionSpace.h):
///
///   ρ ::= $i                  (de Bruijn index)
///       | prim                (named primitive with a type and semantics)
///       | #(ρ)                (invented library routine wrapping a body)
///       | (λ ρ)               (abstraction)
///       | (ρ ρ)               (application)
///
/// Because nodes are interned in a global arena, structural equality is
/// pointer equality and programs can be used as hash-map keys directly.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_PROGRAM_H
#define DC_CORE_PROGRAM_H

#include "core/Type.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dc {

class Expr;
class ExprArena;

/// Interned handle; equality is identity.
using ExprPtr = const Expr *;

/// Syntactic category of an expression node.
enum class ExprKind : uint8_t {
  Index,       ///< de Bruijn variable $i
  Primitive,   ///< named base-language primitive
  Invented,    ///< learned library routine #(body)
  Abstraction, ///< (λ body)
  Application, ///< (f x)
};

/// One interned λ-calculus node.
class Expr {
public:
  ExprKind kind() const { return TheKind; }
  bool isIndex() const { return TheKind == ExprKind::Index; }
  bool isPrimitive() const { return TheKind == ExprKind::Primitive; }
  bool isInvented() const { return TheKind == ExprKind::Invented; }
  bool isAbstraction() const { return TheKind == ExprKind::Abstraction; }
  bool isApplication() const { return TheKind == ExprKind::Application; }
  /// True for the leaf-like nodes enumeration treats as grammar productions.
  bool isLeafLike() const { return isPrimitive() || isInvented(); }

  /// de Bruijn index value (Index nodes only).
  int index() const {
    assert(isIndex() && "not an index");
    return IndexVal;
  }

  /// Primitive name (Primitive nodes only).
  const std::string &name() const {
    assert(isPrimitive() && "not a primitive");
    return Name;
  }

  /// Declared polymorphic type (Primitive and Invented nodes).
  const TypePtr &declaredType() const {
    assert((isPrimitive() || isInvented()) && "node has no declared type");
    return DeclType;
  }

  /// Wrapped body (Invented and Abstraction nodes).
  ExprPtr body() const {
    assert((isInvented() || isAbstraction()) && "node has no body");
    return Body;
  }

  /// Function side of an application.
  ExprPtr fn() const {
    assert(isApplication() && "not an application");
    return Fn;
  }

  /// Argument side of an application.
  ExprPtr arg() const {
    assert(isApplication() && "not an application");
    return Arg;
  }

  size_t hash() const { return HashVal; }

  //===--------------------------------------------------------------------===//
  // Factories (interned)
  //===--------------------------------------------------------------------===//

  static ExprPtr index(int I);
  static ExprPtr primitive(const std::string &Name, const TypePtr &Ty);
  /// Interns an invention wrapping \p Body; the type is inferred and cached.
  static ExprPtr invented(ExprPtr Body);
  static ExprPtr abstraction(ExprPtr Body);
  static ExprPtr application(ExprPtr Fn, ExprPtr Arg);
  /// Curried application of \p Fn to each of \p Args in order.
  static ExprPtr applications(ExprPtr Fn, const std::vector<ExprPtr> &Args);

  /// Number of distinct Expr nodes interned so far (process-wide).
  static size_t internedCount();

  //===--------------------------------------------------------------------===//
  // Queries and transformations
  //===--------------------------------------------------------------------===//

  /// S-expression rendering, e.g. "(lambda (+ $0 1))"; inventions render as
  /// "#(body)".
  std::string show() const;

  /// Number of syntax-tree nodes, with inventions counted as size 1.
  int size() const;

  /// Depth of the syntax tree, with inventions counted as depth 1.
  int depth() const;

  /// True if no free de Bruijn index escapes \p Depth enclosing lambdas.
  bool isClosed() const { return !hasFreeVariableAbove(0); }

  /// True if some free index refers above \p Cutoff enclosing lambdas.
  bool hasFreeVariableAbove(int Cutoff) const;

  /// Shifts free de Bruijn indices >= \p Cutoff by \p Delta. Returns nullptr
  /// when shifting would produce a negative index.
  ExprPtr shift(int Delta, int Cutoff = 0) const;

  /// Capture-avoiding substitution of \p Value for index \p Target.
  ExprPtr substitute(int Target, ExprPtr Value) const;

  /// Leftmost-outermost β-reduction to normal form. Returns nullptr when
  /// the term still has a redex after \p MaxSteps reductions — callers must
  /// treat exhaustion as failure rather than score or install a partially
  /// reduced term (duplicating redexes can need exponentially many steps).
  /// [[nodiscard]] because silently dropping the result usually means a
  /// call site forgot the null contract; see requireNormalForm() for sites
  /// whose inputs are guaranteed to reduce within budget.
  [[nodiscard]] ExprPtr betaNormalForm(int MaxSteps = 64) const;

  /// Replaces every occurrence of invention nodes by their bodies,
  /// recursively, producing an equivalent base-language program (used in the
  /// Fig 1B "expressed in initial primitives" analysis).
  ExprPtr stripInventions() const;

  /// Applies \p Visit to every node in preorder (including this one).
  void visit(const std::function<void(ExprPtr)> &Visit) const;

  /// Collects the subexpressions (by identity, deduplicated) of this tree.
  std::vector<ExprPtr> subexpressions() const;

  /// Infers the type of a closed program. Returns nullptr when the program is
  /// ill-typed.
  TypePtr inferType() const;

  /// Infers a type within an existing context, given the types of enclosing
  /// lambda binders (innermost first). Returns nullptr on failure.
  TypePtr inferType(TypeContext &Ctx,
                    std::vector<TypePtr> &Environment) const;

  /// Maximum number of lambdas an invention chain nests through: a base
  /// primitive has depth 0, an invention whose body mentions only primitives
  /// has depth 1, an invention calling that one has depth 2, and so on.
  /// Matches the "library depth" statistic of Fig 7C.
  int inventionDepth() const;

private:
  friend class ExprArena;
  Expr() = default;

  ExprKind TheKind = ExprKind::Index;
  int IndexVal = 0;
  std::string Name;
  TypePtr DeclType;
  ExprPtr Body = nullptr;
  ExprPtr Fn = nullptr;
  ExprPtr Arg = nullptr;
  size_t HashVal = 0;
};

/// Deterministic structural total order on expressions: negative when
/// \p A orders before \p B, zero only for the same interned node. The
/// order compares kinds, then fields, recursing structurally — it depends
/// only on term *content*, never on interning history or pointer values,
/// so it is stable across runs, rounds, and tables. Version-space
/// extraction uses it to break equal-cost ties (vs/VersionSpace.cpp),
/// which is what makes extraction a pure function of DAG structure and
/// lets compression memoize rewrites across adoption rounds.
int exprCompare(ExprPtr A, ExprPtr B);

/// Unwinds a (possibly nested) application into its head and argument list,
/// e.g. ((f a) b) -> (f, [a, b]).
std::pair<ExprPtr, std::vector<ExprPtr>> applicationSpine(ExprPtr E);

/// Debug assertion helper for the betaNormalForm null-on-exhaustion
/// contract: call sites that can prove their input reduces within budget
/// (e.g. a term that was already a normal form) wrap the result in
/// requireNormalForm so an invariant violation dies loudly in debug/test
/// builds instead of flowing a null term into scoring or library
/// installation. Call sites that cannot prove it must branch on null.
inline ExprPtr requireNormalForm(ExprPtr Reduced) {
  assert(Reduced && "betaNormalForm exhausted its step budget: treat null "
                    "as failure; never score or install this term");
  return Reduced;
}

} // namespace dc

#endif // DC_CORE_PROGRAM_H
