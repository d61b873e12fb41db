//===- core/Type.h - Polymorphic types for typed lambda calculus ---------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hindley-Milner style polymorphic types used throughout the system. A type
/// is either a type variable (written t0, t1, ...) or a constructor applied
/// to argument types (e.g. int, list(int), int -> bool). Function types are
/// represented as the binary constructor "->".
///
/// Types are hash-consed: every distinct type exists exactly once in a
/// process-wide table and is handled as a plain `const Type *` that lives
/// for the rest of the process. Structural equality is pointer equality,
/// constructor names are small integer ids, and the common ground types
/// are created once. The table grows only with distinct types (declared
/// primitive types, parsed requests, inferred program types), never with
/// search: unification works on (scheme, variable offset) pairs and mints
/// no nodes (DESIGN.md §4).
///
/// TypeContext is the unification state: a flat substitution array with an
/// undo trail, so a search binds, explores, and rolls back without copying.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_TYPE_H
#define DC_CORE_TYPE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dc {

class Type;

/// Handle to an interned, immutable type node.
using TypePtr = const Type *;

/// A polymorphic type: either a variable or a constructor application.
class Type {
public:
  enum class Kind : std::uint8_t { Variable, Constructor };

  /// Constructor ids fixed at startup; names registered later get the next
  /// free id.
  enum : int { ArrowId = 0, IntId, RealId, BoolId, CharId, ListId };

  /// Largest type-variable id accepted from outside input (parsers reject
  /// larger ids): a context's substitution is indexed by id, so a parsed
  /// id must not size it. Ids made inside the program grow only with the
  /// inference work actually done.
  static constexpr int MaxVariableId = (1 << 16) - 1;

  /// The type variable with the given id (Id >= 0).
  static TypePtr variable(int Id);

  /// A nullary or applied type constructor.
  static TypePtr constructor(const std::string &Name,
                             const std::vector<TypePtr> &Args = {});

  /// Whether \p Name is a constructor name this process already uses.
  /// Parsers of outside input check it rather than register a new name:
  /// names and nodes are never freed.
  static bool isKnownConstructor(const std::string &Name);

  /// The function type \p From -> \p To.
  static TypePtr arrow(TypePtr From, TypePtr To);

  /// Right-nested arrows from argument types to a return type.
  static TypePtr arrows(const std::vector<TypePtr> &Args, TypePtr Ret);

  /// Number of distinct type nodes interned so far (process-wide).
  static size_t internedCount();

  Kind kind() const { return TheKind; }
  bool isVariable() const { return TheKind == Kind::Variable; }
  bool isConstructor() const { return TheKind == Kind::Constructor; }
  bool isArrow() const { return Con == ArrowId && Args.size() == 2; }

  /// Variable id; only valid when isVariable().
  int variableId() const {
    assert(isVariable() && "not a type variable");
    return VarId;
  }

  /// Constructor id; only valid when isConstructor().
  int constructorId() const {
    assert(isConstructor() && "not a constructor");
    return Con;
  }

  /// Constructor name; only valid when isConstructor().
  const std::string &name() const {
    assert(isConstructor() && "not a constructor");
    return *Name;
  }

  /// Constructor arguments; only valid when isConstructor().
  const std::vector<TypePtr> &arguments() const {
    assert(isConstructor() && "not a constructor");
    return Args;
  }

  /// For an arrow type, the argument (left) side.
  TypePtr arrowArgument() const {
    assert(isArrow() && "not an arrow type");
    return Args[0];
  }

  /// For an arrow type, the result (right) side.
  TypePtr arrowResult() const {
    assert(isArrow() && "not an arrow type");
    return Args[1];
  }

  /// Renders the type with the conventional infix arrow, e.g.
  /// "int -> list(int) -> bool".
  std::string show() const;

  /// True if the type contains no type variables.
  bool isMonomorphic() const { return VarBound == 0; }

  /// One more than the largest variable id occurring in the type (0 when
  /// monomorphic): instantiating at offset k uses variables k..k+bound-1.
  int variableBound() const { return VarBound; }

  /// Collects the distinct variable ids occurring in this type, in first
  /// occurrence order.
  void collectVariables(std::vector<int> &Out) const;

  /// Structural equality; types are hash-consed, so this is identity.
  bool equals(const Type &Other) const { return this == &Other; }

private:
  friend class TypeTable;
  Type() = default;

  Kind TheKind = Kind::Variable;
  int VarId = 0;
  int Con = -1;
  int VarBound = 0;
  const std::string *Name = nullptr;
  std::vector<TypePtr> Args;
  std::size_t Hash = 0;
};

/// Returns the list of curried argument types of \p T (empty when \p T is not
/// an arrow) — e.g. for a -> b -> c returns [a, b].
std::vector<TypePtr> functionArguments(TypePtr T);

/// Returns the final return type of \p T after stripping all arrows.
TypePtr functionReturn(TypePtr T);

/// Number of curried arguments of \p T.
int functionArity(TypePtr T);

//===----------------------------------------------------------------------===//
// Common ground types
//===----------------------------------------------------------------------===//

TypePtr tInt();
TypePtr tReal();
TypePtr tBool();
TypePtr tChar();
TypePtr tList(TypePtr Elem);
TypePtr tString(); ///< Convenience: list(char).
TypePtr t0();      ///< Type variable 0.
TypePtr t1();      ///< Type variable 1.
TypePtr t2();      ///< Type variable 2.

//===----------------------------------------------------------------------===//
// TypeContext — substitution environment for unification
//===----------------------------------------------------------------------===//

/// A type as seen from a TypeContext: node \c T whose variable tI stands for
/// context variable Offset + I. Instantiating a polymorphic scheme is just
/// choosing a fresh offset, so search never builds renamed copies.
struct TypeRef {
  TypePtr T = nullptr;
  int Offset = 0;

  /// The arrow's argument and result, under the same offset.
  TypeRef arrowArgument() const { return {T->arrowArgument(), Offset}; }
  TypeRef arrowResult() const { return {T->arrowResult(), Offset}; }
  /// Context variable id; only valid when T is a variable.
  int variable() const { return T->variableId() + Offset; }
};

/// Mutable unification context: a flat substitution indexed by variable id,
/// the next free variable id, and an undo trail. mark()/rollback() restore
/// both the bindings and the variable counter exactly, so exploring a branch
/// and rolling back leaves the context as if the branch was never tried.
class TypeContext {
public:
  /// A rollback point: trail length and next variable id.
  struct Mark {
    std::size_t Trail;
    int NextVar;
  };

  TypeContext() = default;

  /// Mints a fresh, unbound type variable.
  TypePtr makeVariable();

  /// Number of variables allocated so far.
  int variableCount() const { return NextVar; }

  /// Renames the variables of \p T to fresh ones, in first-occurrence order,
  /// returning the renamed (interned) type. This is how polymorphic library
  /// entries are instantiated at each use site outside search.
  TypePtr instantiate(TypePtr T);

  /// Allocation-free instantiation: reserves variableBound() fresh
  /// variables and returns \p Scheme at their offset. For a canonical
  /// scheme the numbering matches instantiate().
  TypeRef instantiateRef(TypePtr Scheme) {
    TypeRef R{Scheme, NextVar};
    NextVar += Scheme->variableBound();
    return R;
  }

  /// Resolves \p T under the current substitution (deep walk); builds
  /// interned nodes for partially bound types.
  TypePtr apply(TypePtr T) { return apply(TypeRef{T, 0}); }
  TypePtr apply(TypeRef T);

  /// Follows variable bindings at the head only — allocation free.
  /// Sufficient for dispatching on arrow-ness or the head constructor;
  /// argument positions may still contain bound variables.
  TypeRef resolve(TypeRef T) const {
    while (T.T->isVariable()) {
      int V = T.variable();
      if (V >= static_cast<int>(Bindings.size()) || !Bindings[V].T)
        return T;
      T = Bindings[V];
    }
    return T;
  }

  /// Attempts to unify \p A and \p B, extending the substitution. On
  /// failure some bindings may remain; callers that need the old state
  /// take a mark() first and rollback() to it.
  bool unify(TypePtr A, TypePtr B) { return unify(TypeRef{A, 0}, {B, 0}); }
  bool unify(TypeRef A, TypeRef B);

  Mark mark() const { return {Trail.size(), NextVar}; }

  /// Undoes every binding made since \p M and restores the variable
  /// counter to its value at \p M.
  void rollback(Mark M) {
    while (Trail.size() > M.Trail) {
      Bindings[Trail.back()] = {};
      Trail.pop_back();
    }
    NextVar = M.NextVar;
  }

private:
  bool occurs(int Var, TypeRef T) const;
  void bind(int Var, TypeRef T);

  int NextVar = 0;
  /// Binding of each variable id; a null T (or an id past the end) means
  /// the variable is free.
  std::vector<TypeRef> Bindings;
  /// Variables bound so far, in binding order.
  std::vector<int> Trail;
};

/// Renames the variables of \p T to 0,1,2,... in order of first occurrence.
/// Canonical types are suitable as map keys via show().
TypePtr canonicalize(TypePtr T);

} // namespace dc

#endif // DC_CORE_TYPE_H
