//===- core/Type.cpp - Polymorphic types implementation -------------------===//

#include "core/Type.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace dc {

/// The process-wide hash-consing table. Nodes are never freed: a type
/// lives as long as the process, so handles are plain pointers. Sharded
/// by hash so concurrent inference (compression workers) rarely contends.
class TypeTable {
public:
  static TypeTable &get() {
    static TypeTable *Singleton = new TypeTable();
    return *Singleton;
  }

  TypePtr variable(int Id) {
    assert(Id >= 0 && "negative type variable id");
    if (Id < NumCachedVariables) {
      if (TypePtr T = CachedVariables[Id].load(std::memory_order_acquire))
        return T;
      TypePtr T = intern(Type::Kind::Variable, Id, -1, {});
      CachedVariables[Id].store(T, std::memory_order_release);
      return T;
    }
    return intern(Type::Kind::Variable, Id, -1, {});
  }

  TypePtr constructor(int Con, const std::vector<TypePtr> &Args) {
    return intern(Type::Kind::Constructor, 0, Con, Args);
  }

  /// The id of \p Name, or -1 when no type has used it yet.
  int findConstructorId(const std::string &Name) {
    // The built-in names are fixed at construction: no lock for them.
    for (int Id = 0; Id < NumBuiltinNames; ++Id)
      if (Name == BuiltinNames[Id])
        return Id;
    std::lock_guard<std::mutex> Lock(NamesMutex);
    auto It = NameIds.find(Name);
    return It == NameIds.end() ? -1 : It->second;
  }

  int constructorId(const std::string &Name) {
    if (int Id = findConstructorId(Name); Id >= 0)
      return Id;
    std::lock_guard<std::mutex> Lock(NamesMutex);
    auto [It, Inserted] =
        NameIds.emplace(Name, static_cast<int>(Names.size()));
    if (Inserted)
      Names.push_back(Name);
    return It->second;
  }

  size_t size() {
    size_t N = 0;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      N += S.Count;
    }
    return N;
  }

private:
  static constexpr int NumShards = 16;
  static constexpr int NumCachedVariables = 256;
  static constexpr int NumBuiltinNames = 6;
  /// Indexed by the fixed ids of Type::ArrowId and friends.
  static constexpr const char *BuiltinNames[NumBuiltinNames] = {
      "->", "int", "real", "bool", "char", "list"};

  /// Open-addressing set of nodes probed by content, at most half full.
  struct Shard {
    std::mutex Mutex;
    std::vector<Type *> Slots = std::vector<Type *>(64, nullptr);
    size_t Count = 0;
  };

  TypeTable() {
    for (const char *Name : BuiltinNames) {
      NameIds.emplace(Name, static_cast<int>(Names.size()));
      Names.push_back(Name);
    }
  }

  static size_t hashOf(Type::Kind K, int VarId, int Con,
                       const std::vector<TypePtr> &Args) {
    size_t H = K == Type::Kind::Variable
                   ? 0x9e3779b97f4a7c15ULL ^ static_cast<size_t>(VarId)
                   : static_cast<size_t>(Con) * 0x100000001b3ULL;
    for (TypePtr A : Args)
      H = (H ^ A->Hash) * 0xbf58476d1ce4e5b9ULL + 0x632be59bd9b4e019ULL;
    return H ^ (H >> 29);
  }

  static bool sameNode(const Type *T, Type::Kind K, int VarId, int Con,
                       const std::vector<TypePtr> &Args) {
    if (T->TheKind != K)
      return false;
    if (K == Type::Kind::Variable)
      return T->VarId == VarId;
    return T->Con == Con && T->Args == Args;
  }

  TypePtr intern(Type::Kind K, int VarId, int Con,
                 const std::vector<TypePtr> &Args) {
    size_t H = hashOf(K, VarId, Con, Args);
    Shard &S = Shards[H % NumShards];
    std::lock_guard<std::mutex> Lock(S.Mutex);
    size_t Mask = S.Slots.size() - 1;
    size_t I = (H / NumShards) & Mask;
    for (; S.Slots[I]; I = (I + 1) & Mask)
      if (S.Slots[I]->Hash == H && sameNode(S.Slots[I], K, VarId, Con, Args))
        return S.Slots[I];

    Type *T = new Type();
    T->TheKind = K;
    T->VarId = VarId;
    T->Con = Con;
    T->Hash = H;
    if (K == Type::Kind::Variable) {
      T->VarBound = VarId + 1;
    } else {
      T->Name = &nameOf(Con);
      T->Args = Args;
      for (TypePtr A : Args)
        T->VarBound = std::max(T->VarBound, A->VarBound);
    }
    S.Slots[I] = T;
    if (++S.Count * 2 > S.Slots.size())
      grow(S);
    return T;
  }

  static void grow(Shard &S) {
    std::vector<Type *> Old(S.Slots.size() * 2, nullptr);
    Old.swap(S.Slots);
    size_t Mask = S.Slots.size() - 1;
    for (Type *T : Old)
      if (T) {
        size_t I = (T->Hash / NumShards) & Mask;
        while (S.Slots[I])
          I = (I + 1) & Mask;
        S.Slots[I] = T;
      }
  }

  const std::string &nameOf(int Con) {
    std::lock_guard<std::mutex> Lock(NamesMutex);
    return Names[Con];
  }

  Shard Shards[NumShards];
  std::atomic<TypePtr> CachedVariables[NumCachedVariables] = {};
  std::mutex NamesMutex;
  /// A deque keeps every name at a stable address for Type::Name.
  std::deque<std::string> Names;
  std::unordered_map<std::string, int> NameIds;
};

} // namespace dc

using namespace dc;

TypePtr Type::variable(int Id) { return TypeTable::get().variable(Id); }

TypePtr Type::constructor(const std::string &Name,
                          const std::vector<TypePtr> &Args) {
  TypeTable &Table = TypeTable::get();
  return Table.constructor(Table.constructorId(Name), Args);
}

bool Type::isKnownConstructor(const std::string &Name) {
  return TypeTable::get().findConstructorId(Name) >= 0;
}

TypePtr Type::arrow(TypePtr From, TypePtr To) {
  return TypeTable::get().constructor(ArrowId, {From, To});
}

TypePtr Type::arrows(const std::vector<TypePtr> &Args, TypePtr Ret) {
  TypePtr T = Ret;
  for (auto It = Args.rbegin(); It != Args.rend(); ++It)
    T = arrow(*It, T);
  return T;
}

size_t Type::internedCount() { return TypeTable::get().size(); }

std::string Type::show() const {
  if (isVariable())
    return "t" + std::to_string(VarId);
  if (isArrow()) {
    const Type &Lhs = *Args[0];
    std::string Left =
        Lhs.isArrow() ? "(" + Lhs.show() + ")" : Lhs.show();
    return Left + " -> " + Args[1]->show();
  }
  if (Args.empty())
    return *Name;
  std::string Out = *Name + "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I]->show();
  }
  Out += ")";
  return Out;
}

void Type::collectVariables(std::vector<int> &Out) const {
  if (isVariable()) {
    if (std::find(Out.begin(), Out.end(), VarId) == Out.end())
      Out.push_back(VarId);
    return;
  }
  if (isMonomorphic())
    return;
  for (TypePtr A : Args)
    A->collectVariables(Out);
}

std::vector<TypePtr> dc::functionArguments(TypePtr T) {
  std::vector<TypePtr> Out;
  for (; T->isArrow(); T = T->arrowResult())
    Out.push_back(T->arrowArgument());
  return Out;
}

TypePtr dc::functionReturn(TypePtr T) {
  while (T->isArrow())
    T = T->arrowResult();
  return T;
}

int dc::functionArity(TypePtr T) {
  int N = 0;
  for (; T->isArrow(); T = T->arrowResult())
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Ground types
//===----------------------------------------------------------------------===//

// Ground types are interned once; later calls are a load of a local static.
TypePtr dc::tInt() {
  static const TypePtr T = TypeTable::get().constructor(Type::IntId, {});
  return T;
}
TypePtr dc::tReal() {
  static const TypePtr T = TypeTable::get().constructor(Type::RealId, {});
  return T;
}
TypePtr dc::tBool() {
  static const TypePtr T = TypeTable::get().constructor(Type::BoolId, {});
  return T;
}
TypePtr dc::tChar() {
  static const TypePtr T = TypeTable::get().constructor(Type::CharId, {});
  return T;
}
TypePtr dc::tList(TypePtr Elem) {
  return TypeTable::get().constructor(Type::ListId, {Elem});
}
TypePtr dc::tString() {
  static const TypePtr T = tList(tChar());
  return T;
}
TypePtr dc::t0() { return Type::variable(0); }
TypePtr dc::t1() { return Type::variable(1); }
TypePtr dc::t2() { return Type::variable(2); }

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds \p T with each variable renamed through \p Rename, which maps
/// an old id to a new one (the pairs are few, so a flat list suffices).
TypePtr renameVariables(TypePtr T,
                        const std::vector<std::pair<int, int>> &Rename) {
  if (T->isMonomorphic())
    return T;
  if (T->isVariable()) {
    for (const auto &[From, To] : Rename)
      if (From == T->variableId())
        return Type::variable(To);
    return T;
  }
  std::vector<TypePtr> Args;
  Args.reserve(T->arguments().size());
  for (TypePtr A : T->arguments())
    Args.push_back(renameVariables(A, Rename));
  return TypeTable::get().constructor(T->constructorId(), Args);
}

/// First-occurrence renaming of \p T's variables to Base, Base+1, ...
TypePtr renameFrom(TypePtr T, int Base, int *Count) {
  std::vector<int> Vars;
  T->collectVariables(Vars);
  std::vector<std::pair<int, int>> Rename;
  Rename.reserve(Vars.size());
  for (size_t I = 0; I < Vars.size(); ++I)
    Rename.emplace_back(Vars[I], Base + static_cast<int>(I));
  if (Count)
    *Count = static_cast<int>(Vars.size());
  return renameVariables(T, Rename);
}

} // namespace

TypePtr TypeContext::makeVariable() { return Type::variable(NextVar++); }

TypePtr TypeContext::instantiate(TypePtr T) {
  if (T->isMonomorphic())
    return T; // nothing to rename
  int Count = 0;
  TypePtr Out = renameFrom(T, NextVar, &Count);
  NextVar += Count;
  return Out;
}

TypePtr TypeContext::apply(TypeRef T) {
  T = resolve(T);
  if (T.T->isVariable())
    return Type::variable(T.variable());
  if (T.T->isMonomorphic())
    return T.T;
  std::vector<TypePtr> Args;
  Args.reserve(T.T->arguments().size());
  bool Changed = false;
  for (TypePtr A : T.T->arguments()) {
    TypePtr NA = apply(TypeRef{A, T.Offset});
    Changed = Changed || NA != A;
    Args.push_back(NA);
  }
  if (!Changed)
    return T.T;
  return TypeTable::get().constructor(T.T->constructorId(), Args);
}

bool TypeContext::occurs(int Var, TypeRef T) const {
  T = resolve(T);
  if (T.T->isVariable())
    return T.variable() == Var;
  if (T.T->isMonomorphic())
    return false;
  for (TypePtr A : T.T->arguments())
    if (occurs(Var, TypeRef{A, T.Offset}))
      return true;
  return false;
}

void TypeContext::bind(int Var, TypeRef T) {
  if (Var >= static_cast<int>(Bindings.size()))
    Bindings.resize(std::max(Var + 1, NextVar));
  Bindings[Var] = T;
  Trail.push_back(Var);
}

bool TypeContext::unify(TypeRef A, TypeRef B) {
  TypeRef X = resolve(A);
  TypeRef Y = resolve(B);
  if (X.T->isVariable()) {
    if (Y.T->isVariable() && X.variable() == Y.variable())
      return true;
    if (occurs(X.variable(), Y))
      return false;
    bind(X.variable(), Y);
    return true;
  }
  if (Y.T->isVariable())
    return unify(Y, X);
  // Hash-consing: equal monomorphic types are the same node.
  if (X.T->isMonomorphic() && Y.T->isMonomorphic())
    return X.T == Y.T;
  if (X.T->constructorId() != Y.T->constructorId() ||
      X.T->arguments().size() != Y.T->arguments().size())
    return false;
  for (size_t I = 0; I < X.T->arguments().size(); ++I)
    if (!unify(TypeRef{X.T->arguments()[I], X.Offset},
               TypeRef{Y.T->arguments()[I], Y.Offset}))
      return false;
  return true;
}

TypePtr dc::canonicalize(TypePtr T) { return renameFrom(T, 0, nullptr); }
