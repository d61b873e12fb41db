//===- core/Grammar.cpp - Probabilistic grammars over programs ------------===//

#include "core/Grammar.h"
#include "core/LikelihoodSummary.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();

} // namespace

Grammar Grammar::uniform(const std::vector<ExprPtr> &Prims,
                         double LogVariable) {
  Grammar G;
  G.LogVar = LogVariable;
  for (ExprPtr P : Prims)
    G.addProduction(P);
  return G;
}

int Grammar::productionIndex(ExprPtr P) const {
  for (size_t I = 0; I < Prods.size(); ++I)
    if (Prods[I].Program == P)
      return static_cast<int>(I);
  return -1;
}

int Grammar::addProduction(ExprPtr P) {
  int Existing = productionIndex(P);
  if (Existing >= 0)
    return Existing;
  assert(P->isLeafLike() && "grammar productions are primitives/inventions");
  TypePtr Scheme = canonicalize(P->declaredType());
  TypePtr Ret = functionReturn(Scheme);
  auto Next = std::make_shared<std::vector<ProductionSignature>>(*Signatures);
  Next->push_back({Scheme, Ret,
                   Ret->isConstructor() ? Ret->constructorId() : -1,
                   functionArguments(Scheme)});
  Signatures = std::move(Next);
  Prods.push_back({P, P->declaredType(), 0.0});
  return static_cast<int>(Prods.size()) - 1;
}

int Grammar::inventionCount() const {
  int N = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      ++N;
  return N;
}

int Grammar::libraryDepth() const {
  int D = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      D = std::max(D, P.Program->inventionDepth());
  return D;
}

int Grammar::structureSize() const {
  int S = 0;
  for (const Production &P : Prods)
    if (P.Program->isInvented())
      S += P.Program->body()->size();
  return S;
}

void Grammar::candidates(int /*ParentIdx*/, int /*ArgIdx*/, TypeRef Request,
                         const TypeEnv *Env, TypeContext &Ctx,
                         std::vector<GrammarCandidate> &Out) const {
  const size_t Begin = Out.size();
  Request = Ctx.resolve(Request);
  const int RequestHead =
      Request.T->isConstructor() ? Request.T->constructorId() : -1;
  const std::vector<ProductionSignature> &Sigs = *Signatures;
  assert(Sigs.size() == Prods.size() &&
         "productions are added through addProduction()");

  // Library productions whose (full-arity) return type unifies with the
  // request. Each trial is rolled back; bindCandidate() redoes the chosen
  // one at the same variable offset.
  for (size_t I = 0; I < Prods.size(); ++I) {
    const ProductionSignature &S = Sigs[I];
    // Cheap rejection: a concrete return head can only unify with the same
    // concrete request head.
    if (RequestHead >= 0 && S.ReturnHead >= 0 && S.ReturnHead != RequestHead)
      continue;
    TypeContext::Mark M = Ctx.mark();
    TypeRef Inst = Ctx.instantiateRef(S.Scheme);
    bool Ok = Ctx.unify(TypeRef{S.Return, Inst.Offset}, Request);
    Ctx.rollback(M);
    if (Ok)
      Out.push_back(
          {Prods[I].Program, Prods[I].LogWeight, static_cast<int>(I)});
  }

  // In-scope variables, listed outermost binder first (the environment is
  // walked innermost first, hence the reverse). Each matching variable
  // splits the variable mass.
  const size_t VarsBegin = Out.size();
  int DeBruijn = 0;
  for (const TypeEnv *E = Env; E; E = E->Outer, ++DeBruijn) {
    TypeContext::Mark M = Ctx.mark();
    TypeRef Ret = Ctx.resolve(E->Ty);
    while (Ret.T->isArrow())
      Ret = Ctx.resolve(Ret.arrowResult());
    bool Ok = Ctx.unify(Ret, Request);
    Ctx.rollback(M);
    if (Ok)
      Out.push_back({Expr::index(DeBruijn), LogVar, -1});
  }
  std::reverse(Out.begin() + VarsBegin, Out.end());
  if (Out.size() > VarsBegin) {
    double Split = std::log(static_cast<double>(Out.size() - VarsBegin));
    for (size_t I = VarsBegin; I < Out.size(); ++I)
      Out[I].LogProb -= Split;
  }

  if (Out.size() == Begin)
    return;

  // Normalize (logsumexp, summed in candidate order).
  double M = NegInf;
  for (size_t I = Begin; I < Out.size(); ++I)
    M = std::max(M, Out[I].LogProb);
  double Z = M;
  if (M != NegInf) {
    double S = 0;
    for (size_t I = Begin; I < Out.size(); ++I)
      S += std::exp(Out[I].LogProb - M);
    Z = M + std::log(S);
  }
  for (size_t I = Begin; I < Out.size(); ++I)
    Out[I].LogProb -= Z;
}

TypeRef dc::bindCandidate(const EnumerationSource &Src,
                          const GrammarCandidate &C, TypeRef Request,
                          const TypeEnv *Env, TypeContext &Ctx,
                          std::vector<TypeRef> &ArgTypes) {
  TypeRef Ret;
  if (C.ProductionIdx >= 0) {
    const ProductionSignature &S = Src.signatures()[C.ProductionIdx];
    TypeRef Inst = Ctx.instantiateRef(S.Scheme);
    for (TypePtr A : S.Args)
      ArgTypes.push_back({A, Inst.Offset});
    Ret = {S.Return, Inst.Offset};
  } else {
    const TypeEnv *E = Env;
    for (int I = C.Leaf->index(); I > 0; --I)
      E = E->Outer;
    Ret = Ctx.resolve(E->Ty);
    while (Ret.T->isArrow()) {
      ArgTypes.push_back(Ret.arrowArgument());
      Ret = Ctx.resolve(Ret.arrowResult());
    }
  }
  [[maybe_unused]] bool Ok = Ctx.unify(Ret, Request);
  assert(Ok && "a candidate that unified once must unify again");
  return Ret;
}

//===----------------------------------------------------------------------===//
// Decision replay (shared by likelihood, summaries, and bigram training)
//===----------------------------------------------------------------------===//

namespace {

/// Replays one program's decisions. Each argument of an application is
/// replayed in the context as it stood right after its head was chosen:
/// bindings made inside one argument never constrain its siblings.
class DecisionWalker {
public:
  DecisionWalker(const EnumerationSource &Src,
                 const DecisionCallback &OnDecision)
      : Src(Src), OnDecision(OnDecision) {}

  bool walk(TypeRef Request, const TypeEnv *Env, ExprPtr E, int ParentIdx,
            int ArgIdx, int Depth) {
    if (Depth > 256)
      return false;
    Request = Ctx.resolve(Request);

    if (Request.T->isArrow()) {
      TypeEnv Frame{Request.arrowArgument(), Env};
      if (E->isAbstraction())
        return walk(Request.arrowResult(), &Frame, E->body(), ParentIdx,
                    ArgIdx, Depth + 1);
      // Eta-expand on the fly: E ≡ (λ (E↑ $0)).
      ExprPtr Shifted = E->shift(1);
      if (!Shifted)
        return false;
      return walk(Request.arrowResult(), &Frame,
                  Expr::application(Shifted, Expr::index(0)), ParentIdx,
                  ArgIdx, Depth + 1);
    }

    auto [Head, Args] = applicationSpine(E);
    if (Head->isAbstraction())
      return false; // β-redexes are outside the grammar's support

    Cands.clear();
    Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx, Cands);
    auto Found = std::find_if(Cands.begin(), Cands.end(),
                              [&](const GrammarCandidate &C) {
                                return C.Leaf == Head;
                              });
    if (Found == Cands.end())
      return false;
    const GrammarCandidate Chosen = *Found;

    const size_t ArgBegin = ArgTypes.size();
    bindCandidate(Src, Chosen, Request, Env, Ctx, ArgTypes);
    bool Ok = ArgTypes.size() - ArgBegin == Args.size();
    // (An arity mismatch is an over-application of a polymorphic head.)
    if (Ok) {
      OnDecision(ParentIdx, ArgIdx, Chosen, Cands);
      int ChildParent = Chosen.ProductionIdx >= 0 ? Chosen.ProductionIdx
                                                  : ParentVariable;
      const TypeContext::Mark AfterHead = Ctx.mark();
      for (size_t I = 0; Ok && I < Args.size(); ++I) {
        Ok = walk(ArgTypes[ArgBegin + I], Env, Args[I], ChildParent,
                  static_cast<int>(I), Depth + 1);
        Ctx.rollback(AfterHead);
      }
    }
    ArgTypes.resize(ArgBegin);
    return Ok;
  }

  TypeContext Ctx;

private:
  const EnumerationSource &Src;
  const DecisionCallback &OnDecision;
  std::vector<GrammarCandidate> Cands;
  std::vector<TypeRef> ArgTypes;
};

} // namespace

bool dc::walkProgramDecisions(const EnumerationSource &Src,
                              const TypePtr &Request, ExprPtr Program,
                              const DecisionCallback &OnDecision) {
  DecisionWalker W(Src, OnDecision);
  TypeRef Req = W.Ctx.instantiateRef(canonicalize(Request));
  return W.walk(Req, nullptr, Program, ParentStart, 0, 0);
}

double Grammar::logLikelihood(const TypePtr &Request, ExprPtr Program) const {
  double Total = 0;
  bool Ok = walkProgramDecisions(
      *this, Request, Program,
      [&](int, int, const GrammarCandidate &Chosen,
          const std::vector<GrammarCandidate> &) { Total += Chosen.LogProb; });
  return Ok ? Total : NegInf;
}

//===----------------------------------------------------------------------===//
// Sampling
//===----------------------------------------------------------------------===//

namespace {

/// Draws one program top-down. Unlike replay, bindings made while sampling
/// an argument stay in force for its later siblings.
class Sampler {
public:
  Sampler(const EnumerationSource &Src, std::mt19937 &Rng)
      : Src(Src), Rng(Rng) {}

  ExprPtr sample(TypeRef Request, const TypeEnv *Env, int ParentIdx,
                 int ArgIdx, int DepthLeft) {
    if (DepthLeft <= 0)
      return nullptr;
    Request = Ctx.resolve(Request);

    if (Request.T->isArrow()) {
      TypeEnv Frame{Request.arrowArgument(), Env};
      ExprPtr Body = sample(Request.arrowResult(), &Frame, ParentIdx, ArgIdx,
                            DepthLeft - 1);
      return Body ? Expr::abstraction(Body) : nullptr;
    }

    Cands.clear();
    Src.candidates(ParentIdx, ArgIdx, Request, Env, Ctx, Cands);
    if (Cands.empty())
      return nullptr;
    std::vector<double> Probs;
    Probs.reserve(Cands.size());
    for (const GrammarCandidate &C : Cands)
      Probs.push_back(std::exp(C.LogProb));
    std::discrete_distribution<int> Dist(Probs.begin(), Probs.end());
    const GrammarCandidate Chosen = Cands[Dist(Rng)];

    const size_t ArgBegin = ArgTypes.size();
    bindCandidate(Src, Chosen, Request, Env, Ctx, ArgTypes);
    const size_t Arity = ArgTypes.size() - ArgBegin;
    int ChildParent =
        Chosen.ProductionIdx >= 0 ? Chosen.ProductionIdx : ParentVariable;
    ExprPtr Out = Chosen.Leaf;
    for (size_t I = 0; Out && I < Arity; ++I) {
      ExprPtr Arg = sample(ArgTypes[ArgBegin + I], Env, ChildParent,
                           static_cast<int>(I), DepthLeft - 1);
      Out = Arg ? Expr::application(Out, Arg) : nullptr;
    }
    ArgTypes.resize(ArgBegin);
    return Out;
  }

  TypeContext Ctx;

private:
  const EnumerationSource &Src;
  std::mt19937 &Rng;
  std::vector<GrammarCandidate> Cands;
  std::vector<TypeRef> ArgTypes;
};

} // namespace

ExprPtr dc::sampleFromSource(const EnumerationSource &Src,
                             const TypePtr &Request, std::mt19937 &Rng,
                             int MaxDepth) {
  Sampler S(Src, Rng);
  TypeRef Req = S.Ctx.instantiateRef(canonicalize(Request));
  return S.sample(Req, nullptr, ParentStart, 0, MaxDepth);
}

ExprPtr Grammar::sample(const TypePtr &Request, std::mt19937 &Rng,
                        int MaxDepth) const {
  return sampleFromSource(*this, Request, Rng, MaxDepth);
}

std::string Grammar::show() const {
  std::ostringstream OS;
  OS << "logVariable = " << LogVar << "\n";
  for (const Production &P : Prods)
    OS << P.LogWeight << "\t" << P.Ty->show() << "\t" << P.Program->show()
       << "\n";
  return OS.str();
}
