//===- core/ContextualGrammar.cpp - Bigram-parameterized grammars ---------===//

#include "core/ContextualGrammar.h"

#include <algorithm>

using namespace dc;

ContextualGrammar::ContextualGrammar(const Grammar &Base) : Start(Base),
                                                            Variable(Base) {
  PerParent.reserve(Base.productions().size());
  for (const Production &P : Base.productions()) {
    int Arity = std::max(1, functionArity(P.Ty));
    PerParent.emplace_back(static_cast<size_t>(Arity), Base);
  }
}

int ContextualGrammar::maxArity() const {
  int A = 1;
  for (const auto &Slots : PerParent)
    A = std::max(A, static_cast<int>(Slots.size()));
  return A;
}

Grammar &ContextualGrammar::slot(int ParentIdx, int ArgIdx) {
  if (ParentIdx == ParentStart)
    return Start;
  if (ParentIdx == ParentVariable)
    return Variable;
  assert(ParentIdx >= 0 &&
         ParentIdx < static_cast<int>(PerParent.size()) &&
         "parent production out of range");
  auto &Slots = PerParent[ParentIdx];
  int Clamped = std::clamp(ArgIdx, 0, static_cast<int>(Slots.size()) - 1);
  return Slots[Clamped];
}

const Grammar &ContextualGrammar::slot(int ParentIdx, int ArgIdx) const {
  return const_cast<ContextualGrammar *>(this)->slot(ParentIdx, ArgIdx);
}

void ContextualGrammar::candidates(int ParentIdx, int ArgIdx, TypeRef Request,
                                   const TypeEnv *Env, TypeContext &Ctx,
                                   std::vector<GrammarCandidate> &Out) const {
  slot(ParentIdx, ArgIdx).candidates(ParentIdx, ArgIdx, Request, Env, Ctx,
                                     Out);
}
