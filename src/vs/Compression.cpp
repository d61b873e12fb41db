//===- vs/Compression.cpp - Abstraction sleep: library learning -----------===//

#include "vs/Compression.h"

#include "core/LikelihoodSummary.h"
#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "vs/TopDown.h"
#include "vs/VersionSpace.h"
#include "vs/VersionSpaceCache.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <unordered_map>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();

double logSumExp(const std::vector<double> &Xs) {
  double M = NegInf;
  for (double X : Xs)
    M = std::max(M, X);
  if (M == NegInf)
    return NegInf;
  double S = 0;
  for (double X : Xs)
    S += std::exp(X - M);
  return M + std::log(S);
}

} // namespace

/// Collects the distinct free de Bruijn indices of \p E (relative to its
/// root), ascending.
void dc::detail::collectFreeIndices(ExprPtr E, int Depth,
                                    std::set<int> &Out) {
  switch (E->kind()) {
  case ExprKind::Index:
    if (E->index() >= Depth)
      Out.insert(E->index() - Depth);
    break;
  case ExprKind::Primitive:
  case ExprKind::Invented:
    break;
  case ExprKind::Abstraction:
    collectFreeIndices(E->body(), Depth + 1, Out);
    break;
  case ExprKind::Application:
    collectFreeIndices(E->fn(), Depth, Out);
    collectFreeIndices(E->arg(), Depth, Out);
    break;
  }
}

/// True when \p Body is worth turning into a library routine: closed,
/// well-typed, and structurally non-trivial. Shared by both proposal
/// backends (vs/TopDown.cpp applies the identical admission filter).
bool dc::detail::isUsefulInventionBody(ExprPtr Body, const Grammar &G) {
  if (!Body || !Body->isClosed())
    return false;
  if (Body->isIndex() || Body->isPrimitive() || Body->isInvented())
    return false;
  // The original system's `nontrivial` test: a routine must mention at
  // least two primitives, or one primitive plus a variable used twice.
  // This rejects bare rearrangement combinators like (λλλ ($2 $1 $0)),
  // which compress syntax without capturing domain structure (and whose
  // eta-expansions apply variables of unknown arity, outside the
  // grammar's support).
  int Primitives = 0;
  int DuplicatedVariables = 0;
  std::set<int> SeenIndices;
  std::function<void(ExprPtr, int)> Scan = [&](ExprPtr E, int Depth) {
    switch (E->kind()) {
    case ExprKind::Index:
      if (!SeenIndices.insert(E->index() - Depth).second)
        ++DuplicatedVariables;
      break;
    case ExprKind::Primitive:
    case ExprKind::Invented:
      ++Primitives;
      break;
    case ExprKind::Abstraction:
      Scan(E->body(), Depth + 1);
      break;
    case ExprKind::Application:
      Scan(E->fn(), Depth);
      Scan(E->arg(), Depth);
      break;
    }
  };
  Scan(Body, 0);
  if (Primitives < 2 && !(Primitives == 1 && DuplicatedVariables > 0))
    return false;
  if (Body->size() < 3)
    return false;
  if (!Body->inferType())
    return false;
  // Already in the library?
  for (const Production &P : G.productions())
    if (P.Program->isInvented() && P.Program->body() == Body)
      return false;
  return true;
}

namespace {

/// printf-append into a per-candidate log buffer, so verbose output from
/// concurrently scored candidates can be replayed in candidate order.
void appendf(std::string &Out, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buf[1024];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// One proposed library routine, as either proposal source hands it to
/// the shared scoring round.
struct RoundCandidate {
  /// The normalized open term rewrites fire at — the content-stable
  /// identity of the candidate, and the rewrite memo's outer key:
  /// Invention and the rewrite are pure functions of it.
  ExprPtr AnchorTerm = nullptr;
  ExprPtr Invention = nullptr; ///< closed #(...) routine added to D
  int TasksCovered = 0;
  /// The raw rewritten member of beam entry I of frontier X (whose
  /// program is the third argument) under D ∪ {Invention}, before
  /// β-normalization; null keeps the entry. Only the worker scoring this
  /// candidate calls it, so it may keep per-candidate scratch state.
  std::function<ExprPtr(size_t X, size_t I, ExprPtr Program)> RewriteMember;
};

/// Cross-round rewrite memo: anchor term → (beam program → rewritten
/// beam entry). Scoring's dominant cost is rewriting + β-normalizing
/// every beam under every candidate; for one proposal source the outcome
/// for a pair is a pure function of (anchor term, beam program), because
/// both sources break cost ties by term content. After an adoption only
/// the pairs whose beam the new invention rewrote — or whose candidate is
/// newly proposed — miss; everything else replays from the memo.
using RewriteMemo =
    std::unordered_map<ExprPtr, std::unordered_map<ExprPtr, ExprPtr>>;

/// The greedy round both proposal sources share: score each candidate
/// in parallel by rewriting all beams under D ∪ {invention} and
/// evaluating libraryScore, then adopt the best improving candidate (ties
/// toward the lowest candidate index — exactly the order a serial loop
/// would visit). Candidates are independent: each worker copies the
/// grammar and frontiers and writes score + rewrite into its own slot;
/// verbose output is buffered per candidate and replayed in order. A
/// rewritten member is β-normalized and kept only if it stays typeable;
/// a null member or normal form (step budget exhausted) keeps the
/// original entry. Returns true when a candidate was adopted into
/// \p Result.
bool scoreAndAdoptBest(CompressionResult &Result,
                       std::vector<RoundCandidate> &Candidates,
                       RewriteMemo *Memo, bool TopDown,
                       const CompressionParams &Params) {
  obs::ScopedSpan ScoreSpan("compress.score");
  // Hand each candidate its memo sub-map up front, serially: anchors are
  // unique within a round (admission dedups bodies, and the body
  // determines the anchor), so no two workers share a sub-map and the
  // outer map never rehashes under the fan-out.
  std::vector<std::unordered_map<ExprPtr, ExprPtr> *> Memos(
      Candidates.size(), nullptr);
  if (Memo)
    for (size_t CI = 0; CI < Candidates.size(); ++CI)
      Memos[CI] = &(*Memo)[Candidates[CI].AnchorTerm];
#ifndef NDEBUG
  {
    std::set<const void *> Distinct(Memos.begin(), Memos.end());
    assert((!Memo || Distinct.size() == Memos.size()) &&
           "candidate anchors must be unique within a round");
  }
#endif
  const char *MemoHits =
      TopDown ? "topdown.rewrite.hits" : "vs_cache.rewrite.hits";
  const char *MemoMisses =
      TopDown ? "topdown.rewrite.misses" : "vs_cache.rewrite.misses";

  struct ScoredCandidate {
    double Score = NegInf;
    std::vector<Frontier> Rewritten;
    Grammar Extended;
    std::string VerboseLog;
  };
  std::vector<ScoredCandidate> Scored(Candidates.size());
  CompressionParams InnerParams = Params;
  InnerParams.NumThreads = 1; // summaries stay serial inside workers
  parallelFor(Params.NumThreads, Candidates.size(), [&](size_t CI) {
    obs::ScopedSpan CandidateSpan("compress.score.candidate");
    RoundCandidate &C = Candidates[CI];
    ScoredCandidate &S = Scored[CI];
    std::unordered_map<ExprPtr, ExprPtr> *CandMemo = Memos[CI];
    S.Extended = Result.NewGrammar;
    S.Extended.addProduction(C.Invention);
    S.Rewritten = Result.RewrittenFrontiers;
    for (size_t X = 0; X < S.Rewritten.size(); ++X) {
      auto &Entries = S.Rewritten[X].entries();
      for (size_t I = 0; I < Entries.size(); ++I) {
        const ExprPtr Before = Entries[I].Program;
        if (CandMemo) {
          auto It = CandMemo->find(Before);
          if (It != CandMemo->end()) {
            // Replay from a previous round. A beam the last adoption
            // rewrote arrives here as a different program — an
            // automatic miss.
            Entries[I].Program = It->second;
            obs::countAdd(MemoHits);
            continue;
          }
          obs::countAdd(MemoMisses);
        }
        // The member may be a refactoring with explicit β-redexes, e.g.
        // ((λ (map $0 xs)) #invention); normalize so the grammar can
        // score it. Inventions are atomic and survive.
        ExprPtr After = Before;
        if (ExprPtr Member = C.RewriteMember(X, I, Before))
          if (ExprPtr Normal = Member->betaNormalForm(512)) {
            if (Params.Verbose && Normal != Before && CI < 3)
              appendf(S.VerboseLog, "    rewrite[%zu] %s => %s\n", CI,
                      Before->show().c_str(), Normal->show().c_str());
            if (Normal->inferType())
              After = Normal;
          }
        Entries[I].Program = After;
        if (CandMemo)
          CandMemo->emplace(Before, After);
      }
    }
    // Free the hook's scratch (cone, overlay, DP memo) now, not at the
    // end of the round: across all candidates it would add up to the
    // table size times the candidate count.
    C.RewriteMember = nullptr;
    S.Score = libraryScore(S.Extended, S.Rewritten, InnerParams);
    obs::countAdd("compress.candidates_scored");
    if (Params.Verbose && CI < 12)
      appendf(S.VerboseLog, "  cand[%zu] %-40s cover=%d score=%.2f%s\n",
              CI, C.Invention->show().c_str(), C.TasksCovered, S.Score,
              S.Score > Result.FinalScore ? " (+)" : "");
  });

  // Deterministic reduction: best score, lowest candidate index on ties.
  double BestScore = Result.FinalScore;
  int BestIdx = -1;
  for (size_t CI = 0; CI < Scored.size(); ++CI) {
    if (Params.Verbose && !Scored[CI].VerboseLog.empty())
      std::fputs(Scored[CI].VerboseLog.c_str(), stderr);
    if (Scored[CI].Score > BestScore) {
      BestScore = Scored[CI].Score;
      BestIdx = static_cast<int>(CI);
    }
  }

  if (BestIdx < 0)
    return false; // no candidate improves the objective
  if (Params.Verbose)
    std::fprintf(stderr, "compression: +%s (score %.2f -> %.2f)\n",
                 Candidates[BestIdx].Invention->show().c_str(),
                 Result.FinalScore, BestScore);
  Result.NewGrammar = std::move(Scored[BestIdx].Extended);
  Result.RewrittenFrontiers = std::move(Scored[BestIdx].Rewritten);
  Result.NewInventions.push_back(Candidates[BestIdx].Invention);
  Result.FinalScore = BestScore;
  obs::countAdd("compress.inventions_adopted");
  return true;
}

} // namespace

ExprPtr dc::detail::closeOverFreeIndices(ExprPtr Term,
                                         const std::vector<int> &Free) {
  int K = static_cast<int>(Free.size());
  std::function<ExprPtr(ExprPtr, int)> Go = [&](ExprPtr E,
                                                int Depth) -> ExprPtr {
    switch (E->kind()) {
    case ExprKind::Index: {
      if (E->index() < Depth)
        return E;
      int FreeIdx = E->index() - Depth;
      for (int J = 0; J < K; ++J)
        if (Free[J] == FreeIdx)
          return Expr::index(Depth + (K - 1 - J));
      // A free index outside the closure set: in a Release build the old
      // assert vanished and the raw index leaked through, silently
      // miscapturing the invention body. Fail the closure instead; the
      // caller skips the candidate.
      return nullptr;
    }
    case ExprKind::Primitive:
    case ExprKind::Invented:
      return E;
    case ExprKind::Abstraction: {
      ExprPtr B = Go(E->body(), Depth + 1);
      return B ? Expr::abstraction(B) : nullptr;
    }
    case ExprKind::Application: {
      ExprPtr Fn = Go(E->fn(), Depth);
      if (!Fn)
        return nullptr;
      ExprPtr Arg = Go(E->arg(), Depth);
      return Arg ? Expr::application(Fn, Arg) : nullptr;
    }
    }
    return E;
  };
  ExprPtr Out = Go(Term, 0);
  if (!Out)
    return nullptr;
  for (int J = 0; J < K; ++J)
    Out = Expr::abstraction(Out);
  return Out;
}

double dc::libraryScore(Grammar &G, const std::vector<Frontier> &Frontiers,
                        const CompressionParams &Params) {
  // Build a likelihood summary per beam entry (structure is θ-independent).
  // Rows are independent given a fixed grammar, so they fan out across the
  // pool into index-addressed slots; G is only re-weighted after the
  // barrier (refitGrammar below), never during it.
  std::vector<std::vector<LikelihoodSummary>> Summaries(Frontiers.size());
  parallelFor(Params.NumThreads, Frontiers.size(), [&](size_t X) {
    const Frontier &F = Frontiers[X];
    std::vector<LikelihoodSummary> Row;
    Row.reserve(F.entries().size());
    for (const FrontierEntry &E : F.entries())
      Row.push_back(
          LikelihoodSummary::build(G, F.task()->request(), E.Program));
    Summaries[X] = std::move(Row);
  });

  // One EM step: posterior-weighted expected counts, then refit θ.
  ExpectedCounts Counts;
  for (size_t X = 0; X < Frontiers.size(); ++X) {
    const auto &Entries = Frontiers[X].entries();
    std::vector<double> Joint(Entries.size(), NegInf);
    for (size_t I = 0; I < Entries.size(); ++I)
      if (Summaries[X][I].valid())
        Joint[I] =
            Entries[I].LogLikelihood + Summaries[X][I].logLikelihood(G);
    double Z = logSumExp(Joint);
    if (Z == NegInf)
      continue;
    for (size_t I = 0; I < Entries.size(); ++I)
      if (Joint[I] > NegInf)
        Counts.add(Summaries[X][I], std::exp(Joint[I] - Z));
  }
  refitGrammar(G, Counts, Params.PseudoCounts);

  // Eq. 4 under the refit weights.
  double Score = -Params.StructurePenalty * G.structureSize() -
                 Params.AicWeight *
                     (static_cast<double>(G.productions().size()) + 1);
  for (size_t X = 0; X < Frontiers.size(); ++X) {
    const auto &Entries = Frontiers[X].entries();
    if (Entries.empty())
      continue;
    std::vector<double> Joint;
    Joint.reserve(Entries.size());
    for (size_t I = 0; I < Entries.size(); ++I)
      Joint.push_back(Summaries[X][I].valid()
                          ? Entries[I].LogLikelihood +
                                Summaries[X][I].logLikelihood(G)
                          : NegInf);
    double L = logSumExp(Joint);
    // A solved task whose rewritten beam fell outside the grammar's
    // support must count against the library, not silently vanish from
    // the objective (which would reward degenerate inventions).
    Score += L > NegInf ? L : -1e4;
  }
  return Score;
}

namespace {

/// One greedy round's version-space state: the merged β-closure table of
/// every beam, each beam entry's closure root, the prewarmed extractions
/// and the parent index. The candidates' rewrite hooks read it, so it
/// outlives the round's scoring.
class VersionSpaceRound {
public:
  /// Builds the refactoring closure of every *distinct* beam program at
  /// RefactorSteps. A closure shard — betaClosure in a fresh private
  /// table — is a pure function of (program, steps), which makes it the
  /// unit of content-addressed caching: structurally identical beam
  /// entries (near-identical beams are common on list/text corpora)
  /// reuse one shard across frontiers, rounds, and sleep phases instead
  /// of rebuilding it. The master table absorbs shards in
  /// first-occurrence order (frontier order, entry order), so it and
  /// everything downstream of it is a pure function of the frontiers —
  /// never of the thread count, and never of which lookups hit (a hit
  /// returns a table bit-identical to a rebuild). Returns false when some
  /// shard or the merged table exceeds MaxVersionNodes.
  bool buildClosures(const std::vector<Frontier> &Frontiers,
                     const CompressionParams &Params) {
    obs::ScopedSpan ClosureSpan("compress.closure");
    VersionSpaceCache *Cache =
        Params.UseVsCache ? &VersionSpaceCache::global() : nullptr;
    const int Steps = Params.RefactorSteps;
    std::vector<ExprPtr> Programs;
    std::unordered_map<ExprPtr, size_t> ProgramSlot;
    for (const Frontier &F : Frontiers)
      for (const FrontierEntry &E : F.entries())
        if (ProgramSlot.emplace(E.Program, Programs.size()).second)
          Programs.push_back(E.Program);

    std::vector<VsClosureShardPtr> Shards(Programs.size());
    CancellationToken Cancel;
    parallelFor(
        Params.NumThreads, Programs.size(),
        [&](size_t PI) {
          obs::ScopedSpan ShardSpan("compress.closure.shard");
          VsClosureShardPtr &S = Shards[PI];
          if (Cache)
            S = Cache->lookup(Programs[PI], Steps);
          if (!S) {
            S = VsClosureShard::build(Programs[PI], Steps);
            // Oversized shards are never installed.
            if (Cache && S->nodes() <= Params.MaxVersionNodes)
              Cache->insert(S);
          }
          // An oversized shard (or a stale oversized hit, installed under
          // a larger cap by an earlier phase) overflows the round no
          // matter how the merge would have gone; stop the other workers
          // early. Which shards got built is thread-dependent, but size
          // is a pure property of (program, steps), so only the
          // deterministic overflow verdict survives.
          if (S->nodes() > Params.MaxVersionNodes)
            Cancel.cancel();
        },
        &Cancel);
    if (Cancel.cancelled())
      return false;

    std::vector<VsId> Roots(Programs.size(), -1);
    {
      obs::ScopedSpan MergeSpan("compress.closure.merge");
      std::vector<VsId> Memo;
      for (size_t PI = 0; PI < Programs.size(); ++PI) {
        const VsClosureShard &S = *Shards[PI];
        Memo.assign(S.Table.size(), -1);
        Roots[PI] = VT.absorb(S.Table, S.Root, Memo);
        if (VT.size() > Params.MaxVersionNodes) {
          VT = VersionTable(); // the top-down round must not pay for it
          return false;
        }
      }
    }
    Closures.assign(Frontiers.size(), {});
    for (size_t X = 0; X < Frontiers.size(); ++X)
      for (const FrontierEntry &E : Frontiers[X].entries())
        Closures[X].push_back(Roots[ProgramSlot[E.Program]]);
    obs::observe("compress.version_nodes", static_cast<double>(VT.size()));
    return true;
  }

  /// Coverage ranking and proposal validation over the built closures.
  /// Each candidate anchors at the hash-consed singleton of its
  /// normalized open term and rewrites beams by extractWithCandidate.
  std::vector<RoundCandidate> propose(const CompressionResult &Result,
                                      int Round,
                                      const CompressionParams &Params) {
    obs::ScopedSpan ProposeSpan("compress.propose");
    // Count, for each version-space node, how many tasks' refactorings
    // contain it. Frontiers fan out in chunks: each worker accumulates a
    // chunk-private count vector (reachable() is a const read), and the
    // partials fold in chunk order. Integer sums commute exactly, so the
    // totals are identical at every thread count by construction.
    std::vector<int> TasksCovering(VT.size(), 0);
    {
      const size_t CoverChunk = 64;
      const size_t NumChunks =
          (Closures.size() + CoverChunk - 1) / CoverChunk;
      std::vector<std::vector<int>> Partials(NumChunks);
      parallelFor(Params.NumThreads, NumChunks, [&](size_t CK) {
        std::vector<int> &Counts = Partials[CK];
        Counts.assign(VT.size(), 0);
        std::vector<char> InThisTask(VT.size(), 0);
        size_t End = std::min(Closures.size(), (CK + 1) * CoverChunk);
        for (size_t X = CK * CoverChunk; X < End; ++X) {
          std::fill(InThisTask.begin(), InThisTask.end(), 0);
          for (VsId Root : Closures[X])
            for (VsId V : VT.reachable(Root))
              InThisTask[V] = 1;
          for (size_t V = 0; V < InThisTask.size(); ++V)
            Counts[V] += InThisTask[V];
        }
      });
      for (const std::vector<int> &Counts : Partials)
        for (size_t V = 0; V < Counts.size(); ++V)
          TasksCovering[V] += Counts[V];
    }

    // Rank candidate spaces by coverage, then validate the top ones. Ties
    // break toward the lower node id so the ranking (and hence which
    // candidates survive the MaxCandidates cut) is a total order,
    // independent of sort implementation details.
    std::vector<std::pair<int, VsId>> Ranked;
    for (size_t V = 0; V < TasksCovering.size(); ++V)
      if (TasksCovering[V] >= Params.MinimumTasksCovered)
        Ranked.push_back({TasksCovering[V], static_cast<VsId>(V)});
    std::sort(Ranked.begin(), Ranked.end(),
              [](const auto &A, const auto &B) {
                return A.first != B.first ? A.first > B.first
                                          : A.second < B.second;
              });

    // One candidate-independent extraction of every node, shared by the
    // proposal scan and by out-of-cone nodes during per-candidate
    // rewriting. Computing it up front makes it strictly read-only for
    // everything that follows: proposal workers and scoring workers alike
    // layer private overlays on top of it for nodes interned later.
    {
      obs::ScopedSpan PrewarmSpan("compress.prewarm");
      Prewarmed = VT.extractAll();
    }

    // Validate the ranked spaces into concrete proposals. The pure,
    // expensive part (extraction + β-normalization + free-variable
    // closure) fans out per ranked space; admission — body dedup,
    // anchoring via incorporate() (which mutates the table), and the
    // MaxCandidates cut — replays serially in rank order, so the
    // surviving candidate list is exactly the serial scan's. Chunking
    // bounds the wasted fan-out after the cut to one chunk.
    struct Proposal {
      ExprPtr Term;          ///< normalized open term (null = rejected)
      ExprPtr Body;          ///< λ-closed invention body
      std::vector<int> Free; ///< free indices the body was closed over
    };
    std::vector<RoundCandidate> Candidates;
    std::set<ExprPtr> SeenBodies;
    const size_t ScanChunk = std::max<size_t>(
        32, 4 * static_cast<size_t>(
                    ThreadPool::resolveThreadCount(Params.NumThreads)));
    for (size_t ChunkStart = 0;
         ChunkStart < Ranked.size() &&
         static_cast<int>(Candidates.size()) < Params.MaxCandidates;
         ChunkStart += ScanChunk) {
      size_t ChunkEnd = std::min(Ranked.size(), ChunkStart + ScanChunk);
      std::vector<Proposal> Proposals(ChunkEnd - ChunkStart);
      parallelFor(Params.NumThreads, ChunkEnd - ChunkStart, [&](size_t K) {
        VsId V = Ranked[ChunkStart + K].second;
        std::unordered_map<VsId, Extraction> Overlay;
        ExprPtr Term = VT.extractLayered(V, Prewarmed, Overlay).Program;
        if (!Term)
          return;
        // Normalize the invention (the OCaml system's
        // normalize_invention): extracted members are refactorings and
        // often carry β-redexes. A null return means the budget ran out
        // mid-reduction — drop the candidate rather than anchor on a
        // half-reduced term.
        Term = Term->betaNormalForm(128);
        if (!Term)
          return;
        // The term may be open — λ-abstract its free variables into the
        // invention and apply the invention back to them at rewrite
        // sites.
        std::set<int> FreeSet;
        detail::collectFreeIndices(Term, 0, FreeSet);
        if (FreeSet.size() > 2)
          return; // cap invention arity growth from free variables
        std::vector<int> Free(FreeSet.begin(), FreeSet.end());
        ExprPtr Body =
            Free.empty() ? Term : detail::closeOverFreeIndices(Term, Free);
        if (!detail::isUsefulInventionBody(Body, Result.NewGrammar))
          return;
        Proposals[K] = {Term, Body, std::move(Free)};
      });
      for (Proposal &P : Proposals) {
        if (static_cast<int>(Candidates.size()) >= Params.MaxCandidates)
          break;
        if (!P.Term)
          continue;
        if (!SeenBodies.insert(P.Body).second)
          continue; // distinct spaces can extract identical bodies
        // Rewrites fire where the candidate node itself appears; anchor
        // the candidate at the hash-consed singleton of the normalized
        // (open) term, which every closure position exposing the idiom
        // shares.
        VsId Anchor = VT.incorporate(P.Term);
        if (Anchor >= static_cast<VsId>(TasksCovering.size()) ||
            TasksCovering[Anchor] < Params.MinimumTasksCovered)
          continue; // the normal form itself is not exposed often enough
        ExprPtr Invention = Expr::invented(P.Body);
        // What an occurrence of the anchor becomes: the invention applied
        // to the open term's free variables, e.g. (#(λ (+ $0 $0)) $1).
        ExprPtr Rewrite = Invention;
        for (int I : P.Free)
          Rewrite = Expr::application(Rewrite, Expr::index(I));
        // The hook runs inside a scoring worker, against the read-only
        // table, parent index and prewarmed extractions, with a private
        // overlay and the candidate's cone computed on first use.
        Candidates.push_back(
            {P.Term, Invention, TasksCovering[Anchor],
             [this, Anchor, Rewrite, Cone = std::vector<char>(),
              Overlay = std::unordered_map<VsId, Extraction>()](
                 size_t X, size_t I, ExprPtr) mutable {
               if (Cone.empty())
                 Cone = VT.coneAbove(Anchor, Parents);
               return VT
                   .extractWithCandidate(Closures[X][I], Anchor, Rewrite,
                                         Cone, Prewarmed, Overlay)
                   .Program;
             }});
      }
    }
    if (Params.Verbose)
      std::fprintf(stderr,
                   "compression round %d: %zu ranked, %zu candidates, "
                   "baseline %.2f\n",
                   Round, Ranked.size(), Candidates.size(),
                   Result.FinalScore);
    obs::countAdd("compress.candidates_ranked",
                  static_cast<long>(Ranked.size()));
    // Admission's incorporate() calls were the round's last interning, so
    // the reverse edges are final: each candidate's cone is then a walk
    // over its own ancestors instead of a scan of the table.
    if (!Candidates.empty()) {
      obs::ScopedSpan IndexSpan("compress.parent_index");
      Parents = VT.parentIndex();
    }
    return Candidates;
  }

private:
  VersionTable VT;
  std::vector<std::vector<VsId>> Closures; ///< per frontier, per entry
  std::vector<Extraction> Prewarmed;
  VsParentIndex Parents;
};

/// The top-down proposal source (vs/TopDown.cpp): corpus-guided patterns
/// over the beam syntax, no version spaces. Beams are rewritten by the
/// extraction-cost DP over their syntax trees.
std::vector<RoundCandidate> proposeTopDownRound(const CompressionResult &Result,
                                                int Round,
                                                const CompressionParams &Params) {
  obs::ScopedSpan ProposeSpan("topdown.propose");
  TopDownStats Stats;
  std::vector<TopDownCandidate> Proposed = proposeTopDown(
      Result.NewGrammar, Result.RewrittenFrontiers, Params, &Stats);
  obs::countAdd("topdown.subtree_sites", Stats.SubtreeSites);
  obs::countAdd("topdown.states_expanded", Stats.StatesExpanded);
  obs::countAdd("topdown.states_pruned", Stats.StatesPruned);
  obs::countAdd("topdown.completions", Stats.Completions);
  obs::countAdd("topdown.candidates_proposed", Stats.CandidatesProposed);
  if (Stats.BudgetExhausted)
    obs::countAdd("topdown.budget_exhausted");
  if (Params.Verbose)
    std::fprintf(stderr,
                 "compression round %d (top-down): %ld sites, "
                 "%ld states, %zu candidates, baseline %.2f\n",
                 Round, Stats.SubtreeSites, Stats.StatesExpanded,
                 Proposed.size(), Result.FinalScore);

  std::vector<RoundCandidate> Candidates;
  Candidates.reserve(Proposed.size());
  for (const TopDownCandidate &C : Proposed)
    // The node-level DP memo is shared across the beams of one candidate
    // (costs are depth-independent).
    Candidates.push_back(
        {C.AnchorTerm, C.Invention, C.TasksCovered,
         [C, NodeMemo = std::unordered_map<ExprPtr, TopDownRewrite>()](
             size_t, size_t, ExprPtr Program) mutable {
           return topDownRewriteMember(Program, C, NodeMemo).Member;
         }});
  return Candidates;
}

} // namespace

CompressionResult
dc::compressLibrary(const Grammar &G, const std::vector<Frontier> &Frontiers,
                    const CompressionParams &Params) {
  obs::ScopedSpan CompressSpan("compress");
  CompressionResult Result;
  Result.NewGrammar = G;
  Result.RewrittenFrontiers = Frontiers;
  Result.InitialScore = libraryScore(Result.NewGrammar,
                                     Result.RewrittenFrontiers, Params);
  Result.FinalScore = Result.InitialScore;
  obs::gaugeSet("compress.score_initial", Result.InitialScore);
  obs::gaugeSet("compress.backend",
                Params.Backend == CompressionBackend::TopDown ? 1 : 0);

  // The shard cache and the rewrite memo share one switch: with
  // UseVsCache off every pure value is recomputed from scratch, and the
  // results are bit-identical either way (DESIGN.md §8).
  RewriteMemo Memo;
  RewriteMemo *MemoOrNull = Params.UseVsCache ? &Memo : nullptr;
  bool TopDown = Params.Backend == CompressionBackend::TopDown;
  for (int Round = 0; Round < Params.MaxNewInventions; ++Round) {
    obs::countAdd("compress.rounds");
    VersionSpaceRound VS;
    if (!TopDown &&
        !VS.buildClosures(Result.RewrittenFrontiers, Params)) {
      // The closure overflowed MaxVersionNodes: the top-down source
      // takes over for the rest of this sleep. Its rewrites of an anchor
      // can differ from the version-space extraction's, so no memoized
      // rewrite may cross the switch.
      TopDown = true;
      Memo.clear();
      obs::countAdd("compress.topdown_fallbacks");
      if (Params.Verbose)
        std::fprintf(stderr,
                     "compression: version table overflow at round %d; "
                     "switching to top-down proposals\n",
                     Round);
    }
    std::vector<RoundCandidate> Candidates =
        TopDown ? proposeTopDownRound(Result, Round, Params)
                : VS.propose(Result, Round, Params);
    obs::countAdd("compress.candidates_proposed",
                  static_cast<long>(Candidates.size()));
    if (obs::Telemetry::enabled())
      for (const RoundCandidate &C : Candidates)
        obs::observe("compress.candidate_coverage", C.TasksCovered);
    if (Candidates.empty() ||
        !scoreAndAdoptBest(Result, Candidates, MemoOrNull, TopDown, Params))
      break;
  }

  obs::gaugeSet("compress.score_final", Result.FinalScore);

  // Re-anchor frontier priors to the final grammar.
  for (Frontier &F : Result.RewrittenFrontiers)
    F.rescore(Result.NewGrammar);
  return Result;
}
