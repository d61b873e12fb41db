//===- core/Program.cpp - Hash-consed lambda calculus programs ------------===//

#include "core/Program.h"

#include "core/InternTable.h"

#include <algorithm>
#include <array>
#include <unordered_set>

using namespace dc;

namespace dc {
/// The friend declared in the header: the process-wide table of every Expr,
/// which lives as long as the process, so ExprPtr is a plain pointer. It is
/// sharded (core/InternTable.h) because wake-phase enumeration interns from
/// many threads at once. A probe compares the stored nodes' own fields, so
/// a hit copies no name; nodes are published fully built under the lock.
class ExprArena {
public:
  /// \p A is the body of an invention or abstraction, or the function of
  /// an application whose argument is \p B. A primitive's identity is its
  /// name: registering a name twice returns the first node and its type.
  static ExprPtr intern(ExprKind Kind, ExprPtr A, ExprPtr B = nullptr,
                        int Index = 0, const std::string &Name = {},
                        const TypePtr &DeclType = nullptr) {
    const bool IsApp = Kind == ExprKind::Application;
    uint64_t H =
        static_cast<uint64_t>(Kind) << 32 | static_cast<uint32_t>(Index);
    if (!Name.empty())
      H = H * 0x100000001b3ULL ^ std::hash<std::string>()(Name);
    H = H * 0xbf58476d1ce4e5b9ULL ^ reinterpret_cast<uintptr_t>(A);
    H = H * 0x94d049bb133111ebULL ^ reinterpret_cast<uintptr_t>(B);
    const size_t Hash = internMix(H);
    return table().findOrInsert(
        Hash,
        [&](ExprPtr E) {
          return E->HashVal == Hash && E->TheKind == Kind &&
                 E->IndexVal == Index && (IsApp ? E->Fn : E->Body) == A &&
                 E->Arg == B && E->Name == Name;
        },
        [&] {
          auto *Node = new Expr();
          Node->TheKind = Kind;
          Node->IndexVal = Index;
          Node->Name = Name;
          Node->DeclType = DeclType;
          (IsApp ? Node->Fn : Node->Body) = A;
          Node->Arg = B;
          Node->HashVal = Hash;
          return Node;
        },
        [](ExprPtr E) { return E->HashVal; });
  }

  static ShardedInternTable<ExprPtr> &table() {
    static auto *Table = new ShardedInternTable<ExprPtr>();
    return *Table;
  }
};
} // namespace dc

ExprPtr Expr::index(int I) {
  assert(I >= 0 && "negative de Bruijn index");
  // Candidate generation asks for the in-scope variables at every hole;
  // the small indices are interned once and then read without a lock.
  constexpr int NumCached = 64;
  auto Intern = [](int J) {
    return ExprArena::intern(ExprKind::Index, nullptr, nullptr, J);
  };
  static const std::array<ExprPtr, NumCached> Cached = [&] {
    std::array<ExprPtr, NumCached> Out;
    for (int J = 0; J < NumCached; ++J)
      Out[J] = Intern(J);
    return Out;
  }();
  return I < NumCached ? Cached[I] : Intern(I);
}

ExprPtr Expr::primitive(const std::string &Name, const TypePtr &Ty) {
  assert(Ty && "primitive requires a type");
  return ExprArena::intern(ExprKind::Primitive, nullptr, nullptr, 0, Name, Ty);
}

ExprPtr Expr::invented(ExprPtr Body) {
  assert(Body && "invention requires a body");
  TypePtr Ty = Body->inferType();
  assert(Ty && "invention body must be well typed");
  return ExprArena::intern(ExprKind::Invented, Body, nullptr, 0, {},
                           canonicalize(Ty));
}

ExprPtr Expr::abstraction(ExprPtr Body) {
  assert(Body && "abstraction requires a body");
  return ExprArena::intern(ExprKind::Abstraction, Body);
}

ExprPtr Expr::application(ExprPtr Fn, ExprPtr Arg) {
  assert(Fn && Arg && "application requires both sides");
  return ExprArena::intern(ExprKind::Application, Fn, Arg);
}

size_t Expr::internedCount() { return ExprArena::table().size(); }

ExprPtr Expr::applications(ExprPtr Fn, const std::vector<ExprPtr> &Args) {
  ExprPtr Out = Fn;
  for (ExprPtr A : Args)
    Out = application(Out, A);
  return Out;
}

std::string Expr::show() const {
  switch (TheKind) {
  case ExprKind::Index:
    return "$" + std::to_string(IndexVal);
  case ExprKind::Primitive:
    return Name;
  case ExprKind::Invented: {
    // DreamCoder notation: the '#' fuses with the body's own parentheses,
    // e.g. #(lambda (+ $0 1)).
    std::string B = Body->show();
    if (!B.empty() && B[0] == '(')
      return "#" + B;
    return "#(" + B + ")";
  }
  case ExprKind::Abstraction:
    return "(lambda " + Body->show() + ")";
  case ExprKind::Application: {
    // Flatten the spine for readability: ((f a) b) prints as (f a b).
    auto [Head, Args] = applicationSpine(this);
    std::string Out = "(" + Head->show();
    for (ExprPtr A : Args)
      Out += " " + A->show();
    Out += ")";
    return Out;
  }
  }
  assert(false && "unknown expression kind");
  return "";
}

int Expr::size() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return 1;
  case ExprKind::Abstraction:
    return 1 + Body->size();
  case ExprKind::Application:
    return 1 + Fn->size() + Arg->size();
  }
  return 0;
}

int Expr::depth() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return 1;
  case ExprKind::Abstraction:
    return 1 + Body->depth();
  case ExprKind::Application:
    return 1 + std::max(Fn->depth(), Arg->depth());
  }
  return 0;
}

bool Expr::hasFreeVariableAbove(int Cutoff) const {
  switch (TheKind) {
  case ExprKind::Index:
    return IndexVal >= Cutoff;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return false;
  case ExprKind::Abstraction:
    return Body->hasFreeVariableAbove(Cutoff + 1);
  case ExprKind::Application:
    return Fn->hasFreeVariableAbove(Cutoff) ||
           Arg->hasFreeVariableAbove(Cutoff);
  }
  return false;
}

ExprPtr Expr::shift(int Delta, int Cutoff) const {
  switch (TheKind) {
  case ExprKind::Index:
    if (IndexVal < Cutoff)
      return this;
    if (IndexVal + Delta < 0)
      return nullptr;
    return index(IndexVal + Delta);
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return this;
  case ExprKind::Abstraction: {
    ExprPtr B = Body->shift(Delta, Cutoff + 1);
    return B ? abstraction(B) : nullptr;
  }
  case ExprKind::Application: {
    ExprPtr F = Fn->shift(Delta, Cutoff);
    ExprPtr X = Arg->shift(Delta, Cutoff);
    return (F && X) ? application(F, X) : nullptr;
  }
  }
  return nullptr;
}

ExprPtr Expr::substitute(int Target, ExprPtr Value) const {
  switch (TheKind) {
  case ExprKind::Index:
    if (IndexVal == Target)
      return Value;
    // Indices above the substituted binder step down by one.
    if (IndexVal > Target)
      return index(IndexVal - 1);
    return this;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return this;
  case ExprKind::Abstraction: {
    ExprPtr Shifted = Value->shift(1);
    assert(Shifted && "shift up cannot fail");
    return abstraction(Body->substitute(Target + 1, Shifted));
  }
  case ExprKind::Application:
    return application(Fn->substitute(Target, Value),
                       Arg->substitute(Target, Value));
  }
  return nullptr;
}

namespace {

/// One leftmost-outermost reduction step; returns nullptr when already in
/// normal form (no redex found).
ExprPtr stepBeta(ExprPtr E) {
  switch (E->kind()) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return nullptr;
  case ExprKind::Abstraction: {
    ExprPtr B = stepBeta(E->body());
    return B ? Expr::abstraction(B) : nullptr;
  }
  case ExprKind::Application: {
    if (E->fn()->isAbstraction()) {
      // substitute() folds the binder-removal index decrement in, so the
      // argument is passed unshifted and no downshift follows.
      return E->fn()->body()->substitute(0, E->arg());
    }
    if (ExprPtr F = stepBeta(E->fn()))
      return Expr::application(F, E->arg());
    if (ExprPtr X = stepBeta(E->arg()))
      return Expr::application(E->fn(), X);
    return nullptr;
  }
  }
  return nullptr;
}

} // namespace

ExprPtr Expr::betaNormalForm(int MaxSteps) const {
  ExprPtr Cur = this;
  for (int I = 0; I < MaxSteps; ++I) {
    ExprPtr Next = stepBeta(Cur);
    if (!Next)
      return Cur;
    Cur = Next;
  }
  // Budget exhausted with a redex remaining: signal failure instead of
  // handing back a half-reduced term.
  return stepBeta(Cur) ? nullptr : Cur;
}

ExprPtr Expr::stripInventions() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    return this;
  case ExprKind::Invented:
    return Body->stripInventions();
  case ExprKind::Abstraction:
    return abstraction(Body->stripInventions());
  case ExprKind::Application:
    return application(Fn->stripInventions(), Arg->stripInventions());
  }
  return nullptr;
}

void Expr::visit(const std::function<void(ExprPtr)> &Visit) const {
  Visit(this);
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    break;
  case ExprKind::Invented:
    // Invention bodies are opaque to most consumers; do not descend. Callers
    // that need the body can recurse explicitly.
    break;
  case ExprKind::Abstraction:
    Body->visit(Visit);
    break;
  case ExprKind::Application:
    Fn->visit(Visit);
    Arg->visit(Visit);
    break;
  }
}

std::vector<ExprPtr> Expr::subexpressions() const {
  std::vector<ExprPtr> Out;
  std::unordered_set<ExprPtr> Seen;
  visit([&](ExprPtr E) {
    if (Seen.insert(E).second)
      Out.push_back(E);
  });
  return Out;
}

TypePtr Expr::inferType(TypeContext &Ctx,
                        std::vector<TypePtr> &Environment) const {
  switch (TheKind) {
  case ExprKind::Index: {
    if (IndexVal >= static_cast<int>(Environment.size()))
      return nullptr; // free variable with no binder: untypeable here
    return Ctx.apply(Environment[Environment.size() - 1 - IndexVal]);
  }
  case ExprKind::Primitive:
  case ExprKind::Invented:
    return Ctx.instantiate(DeclType);
  case ExprKind::Abstraction: {
    TypePtr ArgTy = Ctx.makeVariable();
    Environment.push_back(ArgTy);
    TypePtr BodyTy = Body->inferType(Ctx, Environment);
    Environment.pop_back();
    if (!BodyTy)
      return nullptr;
    return Type::arrow(Ctx.apply(ArgTy), BodyTy);
  }
  case ExprKind::Application: {
    TypePtr FnTy = Fn->inferType(Ctx, Environment);
    if (!FnTy)
      return nullptr;
    TypePtr ArgTy = Arg->inferType(Ctx, Environment);
    if (!ArgTy)
      return nullptr;
    TypePtr Result = Ctx.makeVariable();
    if (!Ctx.unify(FnTy, Type::arrow(ArgTy, Result)))
      return nullptr;
    return Ctx.apply(Result);
  }
  }
  return nullptr;
}

TypePtr Expr::inferType() const {
  TypeContext Ctx;
  std::vector<TypePtr> Env;
  TypePtr T = inferType(Ctx, Env);
  if (!T)
    return nullptr;
  return canonicalize(Ctx.apply(T));
}

int Expr::inventionDepth() const {
  switch (TheKind) {
  case ExprKind::Index:
  case ExprKind::Primitive:
    return 0;
  case ExprKind::Invented:
    return 1 + Body->inventionDepth();
  case ExprKind::Abstraction:
    return Body->inventionDepth();
  case ExprKind::Application:
    return std::max(Fn->inventionDepth(), Arg->inventionDepth());
  }
  return 0;
}

int dc::exprCompare(ExprPtr A, ExprPtr B) {
  // Hash-consing makes structural equality pointer equality, so the
  // expensive recursion only runs on genuinely different terms.
  if (A == B)
    return 0;
  if (!A || !B)
    return A ? 1 : -1; // null sorts first
  if (A->kind() != B->kind())
    return static_cast<int>(A->kind()) < static_cast<int>(B->kind()) ? -1
                                                                     : 1;
  switch (A->kind()) {
  case ExprKind::Index:
    return A->index() < B->index() ? -1 : 1; // equal indices are interned
  case ExprKind::Primitive:
    // A primitive is interned by name, so distinct nodes differ in name.
    return A->name() < B->name() ? -1 : 1;
  case ExprKind::Invented:
  case ExprKind::Abstraction:
    return exprCompare(A->body(), B->body());
  case ExprKind::Application:
    if (int C = exprCompare(A->fn(), B->fn()))
      return C;
    return exprCompare(A->arg(), B->arg());
  }
  return 0;
}

std::pair<ExprPtr, std::vector<ExprPtr>> dc::applicationSpine(ExprPtr E) {
  std::vector<ExprPtr> Args;
  while (E->isApplication()) {
    Args.push_back(E->arg());
    E = E->fn();
  }
  std::reverse(Args.begin(), Args.end());
  return {E, std::move(Args)};
}
