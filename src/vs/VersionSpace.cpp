//===- vs/VersionSpace.cpp - Version spaces and inverse beta-reduction ----===//

#include "vs/VersionSpace.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <limits>

using namespace dc;

namespace {
constexpr double Infinity = std::numeric_limits<double>::infinity();
// The internal-node cost lives in VersionSpace.h (ExtractionEpsilonCost)
// so the top-down rewriter prices members on the same scale.
constexpr double EpsilonCost = dc::ExtractionEpsilonCost;

/// True when \p E improves on \p Best under the extraction order: strictly
/// cheaper, or equal cost and structurally smaller (exprCompare). Breaking
/// exact-cost ties by term content instead of union-member position makes
/// the chosen program a pure function of the version-space *structure* —
/// independent of node-id assignment, and therefore identical whether the
/// DAG was built in a private shard, a cached shard, or the merged master
/// table. The shard cache and cross-round rewrite memo both rely on this
/// (vs/VersionSpaceCache.h, DESIGN.md §8).
bool extractionImproves(const dc::Extraction &E, const dc::Extraction &Best) {
  if (!E.Program)
    return false;
  if (!Best.Program)
    return true;
  if (E.Cost != Best.Cost)
    return E.Cost < Best.Cost;
  return dc::exprCompare(E.Program, Best.Program) < 0;
}

/// Structural identity of two nodes as hash-consing sees it.
bool sameNode(const dc::VsNode &A, const dc::VsNode &B) {
  if (A.Kind != B.Kind)
    return false;
  switch (A.Kind) {
  case dc::VsKind::Index:
    return A.Index == B.Index;
  case dc::VsKind::Terminal:
    return A.Leaf == B.Leaf;
  case dc::VsKind::Abstraction:
    return A.Body == B.Body;
  case dc::VsKind::Application:
    return A.Fn == B.Fn && A.Arg == B.Arg;
  case dc::VsKind::Union:
    return A.Members == B.Members;
  default:
    return true;
  }
}

/// Calls \p F on each child edge of \p N, in member order.
template <typename Fn> void forEachChild(const dc::VsNode &N, Fn &&F) {
  switch (N.Kind) {
  case dc::VsKind::Abstraction:
    F(N.Body);
    break;
  case dc::VsKind::Application:
    F(N.Fn);
    F(N.Arg);
    break;
  case dc::VsKind::Union:
    for (dc::VsId M : N.Members)
      F(M);
    break;
  default:
    break;
  }
}

/// The extraction recurrence for one node, reading its children's
/// extractions through \p Child. Every extraction entry point applies
/// exactly this, so they agree node for node.
template <typename ChildFn>
dc::Extraction extractNode(const dc::VsNode &N, ChildFn &&Child) {
  using dc::Expr;
  using dc::Extraction;
  switch (N.Kind) {
  case dc::VsKind::Void:
  case dc::VsKind::Universe:
    break; // inextractable
  case dc::VsKind::Index:
    return {1.0, Expr::index(N.Index)};
  case dc::VsKind::Terminal:
    return {1.0, N.Leaf};
  case dc::VsKind::Abstraction: {
    Extraction Body = Child(N.Body);
    if (Body.Program)
      return {EpsilonCost + Body.Cost, Expr::abstraction(Body.Program)};
    break;
  }
  case dc::VsKind::Application: {
    Extraction Fn = Child(N.Fn);
    if (!Fn.Program)
      break;
    Extraction Arg = Child(N.Arg);
    if (!Arg.Program)
      break;
    return {EpsilonCost + Fn.Cost + Arg.Cost,
            Expr::application(Fn.Program, Arg.Program)};
  }
  case dc::VsKind::Union: {
    Extraction Best{Infinity, nullptr};
    for (dc::VsId M : N.Members) {
      Extraction E = Child(M);
      if (extractionImproves(E, Best))
        Best = E;
    }
    return Best;
  }
  }
  return {Infinity, nullptr};
}
} // namespace

VersionTable::VersionTable() {
  Nodes.push_back({VsKind::Void, 0, nullptr, -1, -1, -1, {}});
  Nodes.push_back({VsKind::Universe, 0, nullptr, -1, -1, -1, {}});
  Hashes.assign(2, 0);
}

size_t VersionTable::hashNode(const VsNode &N) {
  const uint64_t Kind = static_cast<uint64_t>(N.Kind) << 32;
  switch (N.Kind) {
  case VsKind::Index:
    return internMix(Kind ^ static_cast<uint32_t>(N.Index));
  case VsKind::Terminal:
    return internMix(Kind ^ KeyHash()(N.Leaf));
  case VsKind::Abstraction:
    return internMix(Kind ^ static_cast<uint32_t>(N.Body));
  case VsKind::Application:
    return internMix(Kind ^ KeyHash()(std::make_pair(N.Fn, N.Arg)));
  case VsKind::Union: {
    uint64_t H = Kind;
    for (VsId M : N.Members)
      H = internMix(H ^ static_cast<uint32_t>(M));
    return static_cast<size_t>(H);
  }
  default:
    return static_cast<size_t>(Kind);
  }
}

VsId VersionTable::intern(VsNode N) {
  const auto H = static_cast<uint32_t>(hashNode(N));
  return Slots.findOrInsert(
      H, [&](VsId V) { return Hashes[V] == H && sameNode(Nodes[V], N); },
      [&] {
        Nodes.push_back(std::move(N));
        Hashes.push_back(H);
        return static_cast<VsId>(Nodes.size()) - 1;
      },
      [&](VsId V) { return Hashes[V]; });
}

VsId VersionTable::index(int I) {
  return intern({VsKind::Index, I, nullptr, -1, -1, -1, {}});
}

VsId VersionTable::terminal(ExprPtr Leaf) {
  assert(Leaf && (Leaf->isPrimitive() || Leaf->isInvented()) &&
         "terminals are primitives or invented routines");
  return intern({VsKind::Terminal, 0, Leaf, -1, -1, -1, {}});
}

VsId VersionTable::abstraction(VsId Body) {
  if (Body == VoidId)
    return VoidId;
  return intern({VsKind::Abstraction, 0, nullptr, Body, -1, -1, {}});
}

VsId VersionTable::apply(VsId Fn, VsId Arg) {
  if (Fn == VoidId || Arg == VoidId)
    return VoidId;
  return intern({VsKind::Application, 0, nullptr, -1, Fn, Arg, {}});
}

VsId VersionTable::unionOf(std::vector<VsId> Members) {
  // Flatten nested unions, drop ∅, absorb into Λ, dedupe.
  std::vector<VsId> Flat;
  Flat.reserve(Members.size());
  for (VsId M : Members) {
    if (M == VoidId)
      continue;
    if (M == UniverseId)
      return UniverseId;
    const VsNode &N = Nodes[M];
    if (N.Kind == VsKind::Union) {
      for (VsId Inner : N.Members)
        Flat.push_back(Inner);
      continue;
    }
    Flat.push_back(M);
  }
  std::sort(Flat.begin(), Flat.end());
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  if (Flat.empty())
    return VoidId;
  if (Flat.size() == 1)
    return Flat.front();
  return intern({VsKind::Union, 0, nullptr, -1, -1, -1, std::move(Flat)});
}

VsId VersionTable::incorporate(ExprPtr E) {
  auto It = IncorporateMemo.find(E);
  if (It != IncorporateMemo.end())
    return It->second;
  VsId V = VoidId;
  switch (E->kind()) {
  case ExprKind::Index:
    V = index(E->index());
    break;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    V = terminal(E);
    break;
  case ExprKind::Abstraction:
    V = abstraction(incorporate(E->body()));
    break;
  case ExprKind::Application:
    V = apply(incorporate(E->fn()), incorporate(E->arg()));
    break;
  }
  IncorporateMemo.emplace(E, V);
  return V;
}

VsId VersionTable::absorb(const VersionTable &Src, VsId Root,
                          std::vector<VsId> &Memo) {
  assert(Memo.size() == Src.size() && "memo must be sized to the source");
  if (Memo[Root] >= 0)
    return Memo[Root];
  const VsNode &N = Src.Nodes[Root];
  VsId Out = VoidId;
  switch (N.Kind) {
  case VsKind::Void:
    Out = VoidId;
    break;
  case VsKind::Universe:
    Out = UniverseId;
    break;
  case VsKind::Index:
    Out = index(N.Index);
    break;
  case VsKind::Terminal:
    Out = terminal(N.Leaf);
    break;
  case VsKind::Abstraction:
    Out = abstraction(absorb(Src, N.Body, Memo));
    break;
  case VsKind::Application: {
    VsId Fn = absorb(Src, N.Fn, Memo);
    Out = apply(Fn, absorb(Src, N.Arg, Memo));
    break;
  }
  case VsKind::Union: {
    std::vector<VsId> Members;
    Members.reserve(N.Members.size());
    for (VsId M : N.Members)
      Members.push_back(absorb(Src, M, Memo));
    Out = unionOf(std::move(Members));
    break;
  }
  }
  Memo[Root] = Out;
  return Out;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

bool VersionTable::memberContains(VsId V, ExprPtr E,
                                  std::map<std::pair<VsId, ExprPtr>, bool>
                                      &Memo) {
  auto Key = std::make_pair(V, E);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  const VsNode &N = Nodes[V];
  bool Result = false;
  switch (N.Kind) {
  case VsKind::Void:
    Result = false;
    break;
  case VsKind::Universe:
    Result = true;
    break;
  case VsKind::Index:
    Result = E->isIndex() && E->index() == N.Index;
    break;
  case VsKind::Terminal:
    Result = E == N.Leaf;
    break;
  case VsKind::Abstraction:
    Result = E->isAbstraction() && memberContains(N.Body, E->body(), Memo);
    break;
  case VsKind::Application:
    Result = E->isApplication() && memberContains(N.Fn, E->fn(), Memo) &&
             memberContains(N.Arg, E->arg(), Memo);
    break;
  case VsKind::Union:
    for (VsId M : N.Members)
      if (memberContains(M, E, Memo)) {
        Result = true;
        break;
      }
    break;
  }
  Memo.emplace(Key, Result);
  return Result;
}

bool VersionTable::extensionContains(VsId V, ExprPtr E) {
  std::map<std::pair<VsId, ExprPtr>, bool> Memo;
  return memberContains(V, E, Memo);
}

std::vector<ExprPtr> VersionTable::extensionSample(VsId V, int Limit) {
  std::vector<ExprPtr> Out;
  if (Limit <= 0)
    return Out;
  const VsNode &N = Nodes[V];
  switch (N.Kind) {
  case VsKind::Void:
  case VsKind::Universe:
    break; // Λ's extension is not enumerable; report nothing
  case VsKind::Index:
    Out.push_back(Expr::index(N.Index));
    break;
  case VsKind::Terminal:
    Out.push_back(N.Leaf);
    break;
  case VsKind::Abstraction:
    for (ExprPtr B : extensionSample(N.Body, Limit))
      Out.push_back(Expr::abstraction(B));
    break;
  case VsKind::Application:
    for (ExprPtr F : extensionSample(N.Fn, Limit)) {
      for (ExprPtr X : extensionSample(N.Arg, Limit)) {
        Out.push_back(Expr::application(F, X));
        if (static_cast<int>(Out.size()) >= Limit)
          return Out;
      }
    }
    break;
  case VsKind::Union:
    for (VsId M : N.Members) {
      for (ExprPtr E :
           extensionSample(M, Limit - static_cast<int>(Out.size())))
        Out.push_back(E);
      if (static_cast<int>(Out.size()) >= Limit)
        break;
    }
    break;
  }
  if (static_cast<int>(Out.size()) > Limit)
    Out.resize(Limit);
  return Out;
}

double VersionTable::extensionSize(VsId V, double Cap) {
  auto It = SizeMemo.find(V);
  if (It != SizeMemo.end())
    return It->second;
  const VsNode &N = Nodes[V];
  double Result = 0;
  switch (N.Kind) {
  case VsKind::Void:
    Result = 0;
    break;
  case VsKind::Universe:
    Result = Cap; // infinite extension; saturate
    break;
  case VsKind::Index:
  case VsKind::Terminal:
    Result = 1;
    break;
  case VsKind::Abstraction:
    Result = extensionSize(N.Body, Cap);
    break;
  case VsKind::Application:
    Result = extensionSize(N.Fn, Cap) * extensionSize(N.Arg, Cap);
    break;
  case VsKind::Union:
    // Members of a hash-consed union are distinct, and in practice their
    // extensions are disjoint alternatives produced by different inversion
    // choices; sum (this matches how the paper counts refactorings).
    for (VsId M : N.Members)
      Result += extensionSize(M, Cap);
    break;
  }
  Result = std::min(Result, Cap);
  SizeMemo.emplace(V, Result);
  return Result;
}

std::vector<VsId> VersionTable::reachable(VsId V) const {
  std::vector<VsId> Stack = {V};
  std::vector<bool> Seen(Nodes.size(), false);
  std::vector<VsId> Out;
  while (!Stack.empty()) {
    VsId Cur = Stack.back();
    Stack.pop_back();
    if (Seen[Cur])
      continue;
    Seen[Cur] = true;
    Out.push_back(Cur);
    forEachChild(Nodes[Cur], [&](VsId C) { Stack.push_back(C); });
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Refactoring operators
//===----------------------------------------------------------------------===//

VsId VersionTable::shiftFree(VsId V, int Delta, int Cutoff) {
  if (Delta == 0)
    return V;
  auto Key = std::make_tuple(V, Delta, Cutoff);
  auto It = ShiftMemo.find(Key);
  if (It != ShiftMemo.end())
    return It->second;
  const VsNode &N = Nodes[V];
  VsId Result = VoidId;
  switch (N.Kind) {
  case VsKind::Void:
  case VsKind::Universe:
  case VsKind::Terminal:
    Result = V;
    break;
  case VsKind::Index:
    if (N.Index < Cutoff)
      Result = V;
    else if (Delta < 0 && N.Index < Cutoff - Delta)
      Result = VoidId; // the band [Cutoff, Cutoff-Delta) disappears (Fig 5E)
    else
      Result = index(N.Index + Delta);
    break;
  case VsKind::Abstraction:
    Result = abstraction(shiftFree(N.Body, Delta, Cutoff + 1));
    break;
  case VsKind::Application:
    Result = apply(shiftFree(N.Fn, Delta, Cutoff),
                   shiftFree(N.Arg, Delta, Cutoff));
    break;
  case VsKind::Union: {
    std::vector<VsId> Shifted;
    Shifted.reserve(N.Members.size());
    // N.Members is a copy-safe snapshot: interning below may grow Nodes.
    std::vector<VsId> Members = N.Members;
    for (VsId M : Members)
      Shifted.push_back(shiftFree(M, Delta, Cutoff));
    Result = unionOf(std::move(Shifted));
    break;
  }
  }
  ShiftMemo.emplace(Key, Result);
  return Result;
}

VsId VersionTable::intersection(VsId A, VsId B) {
  if (A == B)
    return A;
  if (A == VoidId || B == VoidId)
    return VoidId;
  if (A == UniverseId)
    return B;
  if (B == UniverseId)
    return A;
  auto Key = std::minmax(A, B);
  auto It = IntersectionMemo.find(Key);
  if (It != IntersectionMemo.end())
    return It->second;

  VsId Result = VoidId;
  const VsNode NA = Nodes[A]; // copies: interning may reallocate Nodes
  const VsNode NB = Nodes[B];
  if (NA.Kind == VsKind::Union || NB.Kind == VsKind::Union) {
    std::vector<VsId> Parts;
    const std::vector<VsId> &Left =
        NA.Kind == VsKind::Union ? NA.Members : std::vector<VsId>{A};
    const std::vector<VsId> &Right =
        NB.Kind == VsKind::Union ? NB.Members : std::vector<VsId>{B};
    for (VsId L : Left)
      for (VsId R : Right)
        Parts.push_back(intersection(L, R));
    Result = unionOf(std::move(Parts));
  } else if (NA.Kind == VsKind::Abstraction &&
             NB.Kind == VsKind::Abstraction) {
    Result = abstraction(intersection(NA.Body, NB.Body));
  } else if (NA.Kind == VsKind::Application &&
             NB.Kind == VsKind::Application) {
    Result = apply(intersection(NA.Fn, NB.Fn), intersection(NA.Arg, NB.Arg));
  } else if (NA.Kind == VsKind::Index && NB.Kind == VsKind::Index &&
             NA.Index == NB.Index) {
    Result = A;
  } else if (NA.Kind == VsKind::Terminal && NB.Kind == VsKind::Terminal &&
             NA.Leaf == NB.Leaf) {
    Result = A;
  }
  IntersectionMemo.emplace(Key, Result);
  return Result;
}

const std::map<VsId, VsId> &VersionTable::substitutions(VsId V, int K) {
  auto Key = std::make_pair(V, K);
  auto It = SubstitutionMemo.find(Key);
  if (It != SubstitutionMemo.end())
    return It->second;

  // Accumulate bodies per value; union them at the end (Fig 5D).
  std::map<VsId, std::vector<VsId>> Bodies;

  // The "lift the whole subterm out" case: (λ $K) (↓ᴷ₀ v).
  VsId Lifted = shiftFree(V, -K, 0);
  if (Lifted != VoidId)
    Bodies[Lifted].push_back(index(K));

  const VsNode N = Nodes[V]; // copy: recursion below may reallocate Nodes
  switch (N.Kind) {
  case VsKind::Void:
    break;
  case VsKind::Universe:
    Bodies[UniverseId].push_back(UniverseId);
    break;
  case VsKind::Terminal:
    Bodies[UniverseId].push_back(V);
    break;
  case VsKind::Index:
    if (N.Index < K)
      Bodies[UniverseId].push_back(V);
    else
      Bodies[UniverseId].push_back(index(N.Index + 1));
    break;
  case VsKind::Abstraction: {
    for (const auto &[Value, Body] : substitutions(N.Body, K + 1))
      Bodies[Value].push_back(abstraction(Body));
    break;
  }
  case VsKind::Application: {
    // Avoid dangling references: copy the maps (recursion may invalidate).
    std::map<VsId, VsId> FnSubs = substitutions(N.Fn, K);
    std::map<VsId, VsId> ArgSubs = substitutions(N.Arg, K);
    for (const auto &[V1, FnBody] : FnSubs)
      for (const auto &[V2, ArgBody] : ArgSubs) {
        VsId Value = intersection(V1, V2);
        if (Value == VoidId)
          continue;
        Bodies[Value].push_back(apply(FnBody, ArgBody));
      }
    break;
  }
  case VsKind::Union:
    for (VsId M : N.Members)
      for (const auto &[Value, Body] : substitutions(M, K))
        Bodies[Value].push_back(Body);
    break;
  }

  std::map<VsId, VsId> Result;
  for (auto &[Value, Bs] : Bodies)
    Result.emplace(Value, unionOf(std::move(Bs)));
  return SubstitutionMemo.emplace(Key, std::move(Result)).first->second;
}

VsId VersionTable::inversion(VsId V) {
  auto It = InversionMemo.find(V);
  if (It != InversionMemo.end())
    return It->second;

  std::vector<VsId> Parts;
  {
    // Top-level redexes from S (Fig 5C first clause). Values equal to Λ
    // yield (λ b) Λ refactorings that extraction can never choose (Λ has
    // infinite cost), so they are skipped; so is the trivial identity
    // redex (λ $0) v.
    std::map<VsId, VsId> Subs = substitutions(V, 0);
    for (const auto &[Value, Body] : Subs) {
      if (Value == UniverseId)
        continue;
      if (Body == index(0))
        continue;
      Parts.push_back(apply(abstraction(Body), Value));
    }
  }

  const VsNode N = Nodes[V]; // copy before more interning
  switch (N.Kind) {
  case VsKind::Abstraction:
    Parts.push_back(abstraction(inversion(N.Body)));
    break;
  case VsKind::Application:
    Parts.push_back(apply(inversion(N.Fn), N.Arg));
    Parts.push_back(apply(N.Fn, inversion(N.Arg)));
    break;
  case VsKind::Union:
    for (VsId M : N.Members)
      Parts.push_back(inversion(M));
    break;
  default:
    break;
  }

  VsId Result = unionOf(std::move(Parts));
  InversionMemo.emplace(V, Result);
  return Result;
}

VsId VersionTable::inversionN(VsId V, int Steps) {
  auto Key = std::make_pair(V, Steps);
  auto It = InversionNMemo.find(Key);
  if (It != InversionNMemo.end())
    return It->second;
  std::vector<VsId> Parts = {V};
  VsId Cur = V;
  for (int I = 0; I < Steps; ++I) {
    Cur = inversion(Cur);
    if (Cur == VoidId)
      break;
    Parts.push_back(Cur);
  }
  VsId Result = unionOf(std::move(Parts));
  InversionNMemo.emplace(Key, Result);
  return Result;
}

VsId VersionTable::betaClosure(ExprPtr E, int N) {
  // Telemetry: count root closures and the nodes each one adds. Depth
  // tracks the structural recursion below so only the outermost call
  // reports (inner calls are the same closure, not new ones).
  thread_local int ClosureDepth = 0;
  const bool AtRoot = ClosureDepth == 0 && obs::Telemetry::enabled();
  const size_t NodesBefore = AtRoot ? Nodes.size() : 0;
  ++ClosureDepth;

  // Paper §3.1: Iβ(ρ) = Iβn(ρ) ⊎ (structural recursion into subterms),
  // compiling together the equivalences discovered at every subtree.
  VsId Child = VoidId;
  switch (E->kind()) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    Child = VoidId;
    break;
  case ExprKind::Abstraction:
    Child = abstraction(betaClosure(E->body(), N));
    break;
  case ExprKind::Application:
    Child = apply(betaClosure(E->fn(), N), betaClosure(E->arg(), N));
    break;
  }
  VsId NStep = inversionN(incorporate(E), N);
  VsId Out = unionOf({NStep, Child});

  --ClosureDepth;
  if (AtRoot) {
    obs::countAdd("vs.beta_closures");
    obs::countAdd("vs.nodes_created",
                  static_cast<long>(Nodes.size() - NodesBefore));
    obs::gaugeSet("vs.table_nodes", static_cast<double>(Nodes.size()));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

Extraction VersionTable::extractMinimal(
    VsId V, VsId Candidate, ExprPtr CandidateExpr,
    std::unordered_map<VsId, Extraction> &Cache) const {
  if (V == Candidate) {
    assert(CandidateExpr && "candidate requires its invention expression");
    return {1.0, CandidateExpr};
  }
  auto It = Cache.find(V);
  if (It != Cache.end())
    return It->second;
  // Extraction never interns, so Nodes cannot reallocate underneath us.
  Extraction Result = extractNode(Nodes[V], [&](VsId C) {
    return extractMinimal(C, Candidate, CandidateExpr, Cache);
  });
  Cache.emplace(V, Result);
  return Result;
}

ExprPtr VersionTable::extractCheapest(VsId V) const {
  std::unordered_map<VsId, Extraction> Cache;
  return extractMinimal(V, -1, nullptr, Cache).Program;
}

std::vector<Extraction> VersionTable::extractAll() const {
  // Children have smaller ids than their parents, so one ascending pass
  // sees every child finished before its parent reads it.
  std::vector<Extraction> Out(Nodes.size());
  for (size_t V = 0; V < Nodes.size(); ++V)
    Out[V] = extractNode(Nodes[V], [&](VsId C) {
      assert(static_cast<size_t>(C) < V && "children precede parents");
      return Out[C];
    });
  return Out;
}

Extraction VersionTable::extractLayered(
    VsId V, const std::vector<Extraction> &Shared,
    std::unordered_map<VsId, Extraction> &Overlay) const {
  if (static_cast<size_t>(V) < Shared.size())
    return Shared[V];
  auto It = Overlay.find(V);
  if (It != Overlay.end())
    return It->second;
  Extraction Result = extractNode(
      Nodes[V], [&](VsId C) { return extractLayered(C, Shared, Overlay); });
  Overlay.emplace(V, Result);
  return Result;
}

VsParentIndex VersionTable::parentIndex() const {
  // Count each node's parents, prefix-sum the counts into offsets, then
  // fill every node's slice in ascending parent order.
  VsParentIndex Index;
  Index.Offsets.assign(Nodes.size() + 1, 0);
  for (const VsNode &N : Nodes)
    forEachChild(N, [&](VsId C) { ++Index.Offsets[C + 1]; });
  for (size_t V = 0; V < Nodes.size(); ++V)
    Index.Offsets[V + 1] += Index.Offsets[V];
  Index.Parents.resize(Index.Offsets.back());
  std::vector<uint32_t> Next(Index.Offsets.begin(), Index.Offsets.end() - 1);
  for (size_t V = 0; V < Nodes.size(); ++V)
    forEachChild(Nodes[V], [&](VsId C) {
      Index.Parents[Next[C]++] = static_cast<VsId>(V);
    });
  return Index;
}

std::vector<char> VersionTable::coneAbove(VsId Candidate,
                                          const VsParentIndex &Parents) const {
  assert(Parents.Offsets.size() == Nodes.size() + 1 &&
         "the parent index must cover the whole table");
  std::vector<char> Cone(Nodes.size(), 0);
  if (Candidate < 0 || Candidate >= static_cast<VsId>(Nodes.size()))
    return Cone;
  Cone[Candidate] = 1;
  std::vector<VsId> Stack = {Candidate};
  while (!Stack.empty()) {
    VsId V = Stack.back();
    Stack.pop_back();
    for (uint32_t I = Parents.Offsets[V]; I < Parents.Offsets[V + 1]; ++I) {
      VsId P = Parents.Parents[I];
      if (!Cone[P]) {
        Cone[P] = 1;
        Stack.push_back(P);
      }
    }
  }
  return Cone;
}

Extraction VersionTable::extractWithCandidate(
    VsId V, VsId Candidate, ExprPtr CandidateExpr,
    const std::vector<char> &Cone, const std::vector<Extraction> &Shared,
    std::unordered_map<VsId, Extraction> &OverlayCache) const {
  if (!Cone[V])
    return extractLayered(V, Shared, OverlayCache);
  if (V == Candidate) {
    // The candidate itself extracts as the invention, but some sibling
    // member may still be cheaper elsewhere — cost 1 is already minimal.
    return {1.0, CandidateExpr};
  }
  auto It = OverlayCache.find(V);
  if (It != OverlayCache.end())
    return It->second;
  Extraction Result = extractNode(Nodes[V], [&](VsId C) {
    return extractWithCandidate(C, Candidate, CandidateExpr, Cone, Shared,
                                OverlayCache);
  });
  OverlayCache.emplace(V, Result);
  return Result;
}
