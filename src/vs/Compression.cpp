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

/// One proposed library routine.
struct Candidate {
  VsId Space = -1;          ///< anchor node rewrites fire at
  ExprPtr Invention = nullptr; ///< closed #(...) routine added to D
  /// What an occurrence of Space becomes: the invention applied to the
  /// open term's free variables, e.g. (#(λ (+ $0 $0)) $1).
  ExprPtr RewriteExpr = nullptr;
  /// The normalized open term Space anchors — the content-stable identity
  /// of this candidate (Space is a table-local id; the term is not). The
  /// cross-round rewrite memo keys on it: Invention and RewriteExpr are
  /// both pure functions of the anchor term, so (anchor term, beam
  /// program, steps) determines the rewritten beam entry exactly.
  ExprPtr AnchorTerm = nullptr;
  int TasksCovered = 0;
};

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

/// One backend-agnostic candidate for a greedy round: the invention plus
/// a hook that rewrites every frontier entry under it. The hook runs
/// inside a scoring worker (one per candidate), so it must only touch
/// the frontiers it is handed and per-candidate state it owns.
struct RoundCandidate {
  ExprPtr Invention = nullptr;
  int TasksCovered = 0;
  std::function<void(std::vector<Frontier> &Rewritten, size_t CI,
                     std::string &VerboseLog)>
      RewriteFrontiers;
};

/// The shared scoring/adoption half of a greedy round, identical for
/// both proposal backends by construction: score each candidate in
/// parallel by rewriting all beams under D ∪ {invention} and evaluating
/// libraryScore, then adopt the best improving candidate (ties toward
/// the lowest candidate index — exactly the order a serial loop would
/// visit). Candidates are independent: each worker copies the grammar
/// and frontiers and writes score + rewrite into its own slot; verbose
/// output is buffered per candidate and replayed in order. Returns true
/// when a candidate was adopted into \p Result.
bool scoreAndAdoptBest(CompressionResult &Result,
                       const std::vector<RoundCandidate> &Candidates,
                       const CompressionParams &Params) {
  obs::ScopedSpan ScoreSpan("compress.score");
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
    const RoundCandidate &C = Candidates[CI];
    ScoredCandidate &S = Scored[CI];
    S.Extended = Result.NewGrammar;
    S.Extended.addProduction(C.Invention);
    S.Rewritten = Result.RewrittenFrontiers;
    C.RewriteFrontiers(S.Rewritten, CI, S.VerboseLog);
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

/// The version-space backend's greedy rounds: per-program β-closure
/// shards, coverage ranking, proposal validation, then the shared
/// scoring/adoption round.
void runVersionSpaceRounds(CompressionResult &Result,
                           const CompressionParams &Params) {
  // The content-addressed shard cache (cross-frontier and cross-round
  // closure reuse) and the cross-round rewrite memo share one escape
  // hatch: with UseVsCache off every pure value is recomputed from
  // scratch, and the results are bit-identical either way (DESIGN.md §8,
  // gated by bench_vs_cache).
  VersionSpaceCache *Cache = nullptr;
  if (Params.UseVsCache) {
    Cache = &VersionSpaceCache::global();
    Cache->setNodeBudget(Params.VsCacheNodeBudget);
  }
  // Rewrite memo: anchor term → (beam program → rewritten beam entry).
  // Scoring's dominant cost is extracting + β-normalizing every beam
  // under every candidate; the outcome for one pair is a pure function of
  // (anchor term, beam program, inversion depth) because extraction
  // breaks ties by term content (vs/VersionSpace.cpp). After an adoption
  // only the pairs whose beam the new invention actually rewrote — or
  // whose candidate is newly proposed — miss; everything else replays
  // from the memo. Within a round anchors are unique per candidate
  // (bodies are deduped at admission), so each scoring worker owns its
  // sub-map exclusively; the outer map is only touched between fan-outs.
  std::unordered_map<ExprPtr, std::unordered_map<ExprPtr, ExprPtr>>
      RewriteMemo;
  int RewriteMemoSteps = std::numeric_limits<int>::min();

  for (int Round = 0; Round < Params.MaxNewInventions; ++Round) {
    obs::countAdd("compress.rounds");
    int64_t ClosureStart =
        obs::Telemetry::enabled() ? obs::Tracer::global().begin() : 0;
    // Build the refactoring closure of every *distinct* beam program. A
    // closure shard — betaClosure in a fresh private table — is a pure
    // function of (program, Steps), which makes it the unit of
    // content-addressed caching: structurally identical beam entries
    // (near-identical beams are common on list/text corpora) reuse one
    // shard across frontiers, rounds, and sleep phases instead of
    // rebuilding it. The master table is assembled by absorbing shards in
    // first-occurrence order (frontier order, entry order), so the merged
    // table and everything downstream of it is a pure function of the
    // frontiers and Steps — never of the thread count, and never of which
    // lookups hit (a hit returns a table bit-identical to a rebuild).
    // Large corpora can overflow the node cap at n=3; degrade the
    // inversion depth rather than giving up (shallower refactorings still
    // beat none), dropping the shards the overflowed attempt installed
    // before retrying.
    const size_t NumFrontiers = Result.RewrittenFrontiers.size();
    std::vector<ExprPtr> Programs;
    std::unordered_map<ExprPtr, size_t> ProgramSlot;
    for (const Frontier &F : Result.RewrittenFrontiers)
      for (const FrontierEntry &E : F.entries())
        if (ProgramSlot.emplace(E.Program, Programs.size()).second)
          Programs.push_back(E.Program);

    VersionTable VT;
    std::vector<std::vector<VsId>> Closures;
    int Steps = Params.RefactorSteps;
    bool ClosureGaveUp = false;
    for (;; --Steps) {
      struct ShardSlot {
        VsClosureShardPtr Shard;
        bool Hit = false;       ///< served from the cache
        bool Installed = false; ///< this attempt inserted it
      };
      std::vector<ShardSlot> Shards(Programs.size());
      CancellationToken Cancel;
      parallelFor(
          Params.NumThreads, Programs.size(),
          [&](size_t PI) {
            obs::ScopedSpan ShardSpan("compress.closure.shard");
            ShardSlot &S = Shards[PI];
            if (Cache)
              if ((S.Shard = Cache->lookup(Programs[PI], Steps))) {
                S.Hit = true;
                // A stale oversized entry (installed under a larger cap
                // by an earlier phase) must trigger the same degrade a
                // rebuild would — size is a pure property of the key.
                if (S.Shard->nodes() > Params.MaxVersionNodes)
                  Cancel.cancel();
                return;
              }
            S.Shard = VsClosureShard::build(Programs[PI], Steps);
            if (S.Shard->nodes() > Params.MaxVersionNodes) {
              // An oversized shard means this Steps level is over budget
              // no matter how the merge would have gone; stop the other
              // workers early. Which shards got built is
              // thread-dependent, but oversize is a pure property of
              // (program, Steps), so only the (deterministic) overflow
              // verdict survives — and oversized shards are never
              // installed.
              Cancel.cancel();
              return;
            }
            if (Cache)
              S.Installed = Cache->insert(S.Shard);
          },
          &Cancel);
      bool Overflow = Cancel.cancelled();
      if (!Overflow) {
        obs::ScopedSpan MergeSpan("compress.closure.merge");
        VT = VersionTable();
        std::vector<VsId> Roots(Programs.size(), -1);
        std::vector<VsId> Memo;
        for (size_t PI = 0; PI < Programs.size() && !Overflow; ++PI) {
          const VsClosureShard &S = *Shards[PI].Shard;
          Memo.assign(S.Table.size(), -1);
          Roots[PI] = VT.absorb(S.Table, S.Root, Memo);
          Overflow = VT.size() > Params.MaxVersionNodes;
        }
        if (!Overflow) {
          Closures.assign(NumFrontiers, {});
          for (size_t X = 0; X < NumFrontiers; ++X)
            for (const FrontierEntry &E :
                 Result.RewrittenFrontiers[X].entries())
              Closures[X].push_back(Roots[ProgramSlot[E.Program]]);
        }
      }
      if (!Overflow)
        break;
      // Overflow-degrade contract: a degraded attempt takes back every
      // shard it installed (plus any stale oversized hit) before retrying
      // shallower, so near-cap shards never linger in the cache and the
      // shallower retry — whose keys differ in Steps anyway — can never
      // observe this attempt's entries.
      if (Cache)
        for (size_t PI = 0; PI < Shards.size(); ++PI)
          if (Shards[PI].Installed ||
              (Shards[PI].Hit &&
               Shards[PI].Shard->nodes() > Params.MaxVersionNodes))
            Cache->evict(Programs[PI], Steps);
      if (Steps <= 1) {
        // Even the shallowest inversion depth overflows: give up on this
        // round entirely. The partially built table and closures must
        // never reach proposal ranking (a short Closures row would be
        // indexed out of bounds by the scoring loop below).
        ClosureGaveUp = true;
        break;
      }
      if (Params.Verbose)
        std::fprintf(stderr,
                     "compression: version table overflow at n=%d; "
                     "retrying with n=%d\n",
                     Steps, Steps - 1);
    }
    if (ClosureGaveUp)
      break; // corpus too large for refactoring at any depth
    if (Steps != RewriteMemoSteps) {
      // Extractions depend on the inversion depth: the first round, and
      // any round whose degrade ladder settled on a different depth,
      // invalidates every memoized rewrite.
      RewriteMemo.clear();
      RewriteMemoSteps = Steps;
    }
#ifndef NDEBUG
    for (size_t X = 0; X < NumFrontiers; ++X)
      assert(Closures[X].size() ==
                 Result.RewrittenFrontiers[X].entries().size() &&
             "every beam entry needs exactly one closure root");
#endif
    if (obs::Telemetry::enabled()) {
      obs::Tracer::global().end("compress.closure", ClosureStart);
      obs::observe("compress.version_nodes",
                   static_cast<double>(VT.size()));
      obs::gaugeSet("compress.refactor_steps", Steps);
    }
    int64_t ProposeStart =
        obs::Telemetry::enabled() ? obs::Tracer::global().begin() : 0;

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
    std::vector<Extraction> Prewarmed;
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
    std::vector<Candidate> Candidates;
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
        ExprPtr Rewrite = Invention;
        for (int I : P.Free)
          Rewrite = Expr::application(Rewrite, Expr::index(I));
        Candidates.push_back({Anchor, Invention, Rewrite, P.Term,
                              TasksCovering[Anchor]});
      }
    }
    if (Params.Verbose)
      std::fprintf(stderr,
                   "compression round %d: %zu ranked, %zu candidates, "
                   "baseline %.2f\n",
                   Round, Ranked.size(), Candidates.size(),
                   Result.FinalScore);
    if (obs::Telemetry::enabled()) {
      obs::Tracer::global().end("compress.propose", ProposeStart);
      obs::countAdd("compress.candidates_ranked",
                    static_cast<long>(Ranked.size()));
      obs::countAdd("compress.candidates_proposed",
                    static_cast<long>(Candidates.size()));
      for (const Candidate &C : Candidates)
        obs::observe("compress.candidate_coverage", C.TasksCovered);
    }
    if (Candidates.empty())
      break;
    // Admission's incorporate() calls were the round's last interning, so
    // the reverse edges are final: each candidate's cone is then a walk
    // over its own ancestors instead of a scan of the table.
    VsParentIndex Parents;
    {
      obs::ScopedSpan IndexSpan("compress.parent_index");
      Parents = VT.parentIndex();
    }

    // Hand each candidate its rewrite-memo sub-map up front, serially:
    // anchors are unique within a round (admission dedups bodies, and the
    // body determines the anchor), so no two workers share a sub-map and
    // the outer map never rehashes under the fan-out.
    std::vector<std::unordered_map<ExprPtr, ExprPtr> *> Memos(
        Candidates.size(), nullptr);
    if (Params.UseVsCache)
      for (size_t CI = 0; CI < Candidates.size(); ++CI)
        Memos[CI] = &RewriteMemo[Candidates[CI].AnchorTerm];
#ifndef NDEBUG
    {
      std::set<const void *> Distinct(Memos.begin(), Memos.end());
      assert((!Params.UseVsCache || Distinct.size() == Memos.size()) &&
             "candidate anchors must be unique within a round");
    }
#endif
    // Package the candidates for the shared scoring round: the rewrite
    // hook runs inside a scoring worker, against the read-only table,
    // parent index and prewarmed extractions with a private overlay.
    std::vector<RoundCandidate> RoundCands;
    RoundCands.reserve(Candidates.size());
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      const Candidate C = Candidates[CI];
      std::unordered_map<ExprPtr, ExprPtr> *Memo = Memos[CI];
      RoundCands.push_back(
          {C.Invention, C.TasksCovered,
           [C, Memo, &VT, &Closures, &Prewarmed, &Parents,
            &Params](std::vector<Frontier> &Rewritten, size_t RoundCI,
                     std::string &Log) {
             std::vector<char> Cone = VT.coneAbove(C.Space, Parents);
             std::unordered_map<VsId, Extraction> Overlay;
             for (size_t X = 0; X < Rewritten.size(); ++X) {
               auto &Entries = Rewritten[X].entries();
               for (size_t I = 0; I < Entries.size(); ++I) {
                 const ExprPtr Before = Entries[I].Program;
                 if (Memo) {
                   auto It = Memo->find(Before);
                   if (It != Memo->end()) {
                     // Replay from a previous round. Identical to
                     // recomputing: the value is a pure function of
                     // (anchor term, beam program, Steps), and a beam the
                     // last adoption rewrote arrives here as a different
                     // program — an automatic miss.
                     Entries[I].Program = It->second;
                     obs::countAdd("vs_cache.rewrite.hits");
                     continue;
                   }
                   obs::countAdd("vs_cache.rewrite.misses");
                 }
                 // The extracted member may be a refactoring with
                 // explicit β-redexes, e.g. ((λ (map $0 xs)) #invention);
                 // normalize so the grammar can score it. Inventions are
                 // atomic and survive. A null extraction or null normal
                 // form (step budget exhausted) keeps the original entry.
                 ExprPtr After = Before;
                 Extraction E = VT.extractWithCandidate(
                     Closures[X][I], C.Space, C.RewriteExpr, Cone,
                     Prewarmed, Overlay);
                 if (E.Program) {
                   ExprPtr Normal = E.Program->betaNormalForm(512);
                   if (Normal) {
                     if (Params.Verbose && Normal != Before && RoundCI < 3)
                       appendf(Log, "    rewrite[%zu] %s => %s\n", RoundCI,
                               Before->show().c_str(),
                               Normal->show().c_str());
                     if (Normal->inferType())
                       After = Normal;
                   }
                 }
                 Entries[I].Program = After;
                 if (Memo)
                   Memo->emplace(Before, After);
               }
             }
           }});
    }
    if (!scoreAndAdoptBest(Result, RoundCands, Params))
      break;
  }
}

/// The top-down backend's greedy rounds: corpus-guided proposal
/// (vs/TopDown.cpp) feeding the identical scoring/adoption round. No
/// version spaces are built; beams are rewritten by the extraction-cost
/// DP over their syntax trees. The cross-round rewrite memo mirrors the
/// version-space backend's, except it never needs invalidating: the DP
/// has no inversion-depth dependence, so (anchor term, beam program)
/// determines the rewritten entry outright.
void runTopDownRounds(CompressionResult &Result,
                      const CompressionParams &Params) {
  std::unordered_map<ExprPtr, std::unordered_map<ExprPtr, ExprPtr>>
      RewriteMemo;

  for (int Round = 0; Round < Params.MaxNewInventions; ++Round) {
    obs::countAdd("compress.rounds");
    int64_t ProposeStart =
        obs::Telemetry::enabled() ? obs::Tracer::global().begin() : 0;
    TopDownStats Stats;
    std::vector<TopDownCandidate> Candidates = proposeTopDown(
        Result.NewGrammar, Result.RewrittenFrontiers, Params, &Stats);
    if (obs::Telemetry::enabled()) {
      obs::Tracer::global().end("topdown.propose", ProposeStart);
      obs::countAdd("topdown.subtree_sites", Stats.SubtreeSites);
      obs::countAdd("topdown.states_expanded", Stats.StatesExpanded);
      obs::countAdd("topdown.states_pruned", Stats.StatesPruned);
      obs::countAdd("topdown.completions", Stats.Completions);
      obs::countAdd("topdown.candidates_proposed",
                    Stats.CandidatesProposed);
      if (Stats.BudgetExhausted)
        obs::countAdd("topdown.budget_exhausted");
      obs::countAdd("compress.candidates_proposed",
                    static_cast<long>(Candidates.size()));
      for (const TopDownCandidate &C : Candidates)
        obs::observe("compress.candidate_coverage", C.TasksCovered);
    }
    if (Params.Verbose)
      std::fprintf(stderr,
                   "compression round %d (top-down): %ld sites, "
                   "%ld states, %zu candidates, baseline %.2f\n",
                   Round, Stats.SubtreeSites, Stats.StatesExpanded,
                   Candidates.size(), Result.FinalScore);
    if (Candidates.empty())
      break;

    // Same per-candidate memo discipline as the version-space round:
    // surviving candidates have distinct bodies, distinct bodies have
    // distinct anchors, so the sub-maps are worker-exclusive.
    std::vector<std::unordered_map<ExprPtr, ExprPtr> *> Memos(
        Candidates.size(), nullptr);
    if (Params.UseVsCache)
      for (size_t CI = 0; CI < Candidates.size(); ++CI)
        Memos[CI] = &RewriteMemo[Candidates[CI].AnchorTerm];
#ifndef NDEBUG
    {
      std::set<const void *> Distinct(Memos.begin(), Memos.end());
      assert((!Params.UseVsCache || Distinct.size() == Memos.size()) &&
             "candidate anchors must be unique within a round");
    }
#endif
    std::vector<RoundCandidate> RoundCands;
    RoundCands.reserve(Candidates.size());
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      const TopDownCandidate C = Candidates[CI];
      std::unordered_map<ExprPtr, ExprPtr> *Memo = Memos[CI];
      RoundCands.push_back(
          {C.Invention, C.TasksCovered,
           [C, Memo, &Params](std::vector<Frontier> &Rewritten,
                              size_t RoundCI, std::string &Log) {
             // Node-level DP memo, shared across the beams of this
             // candidate (costs are depth-independent).
             std::unordered_map<ExprPtr, TopDownRewrite> NodeMemo;
             for (Frontier &F : Rewritten) {
               auto &Entries = F.entries();
               for (size_t I = 0; I < Entries.size(); ++I) {
                 const ExprPtr Before = Entries[I].Program;
                 if (Memo) {
                   auto It = Memo->find(Before);
                   if (It != Memo->end()) {
                     Entries[I].Program = It->second;
                     obs::countAdd("topdown.rewrite.hits");
                     continue;
                   }
                   obs::countAdd("topdown.rewrite.misses");
                 }
                 // Identical post-processing to the version-space
                 // rewrite: β-normalize the member, keep it only if it
                 // stays typeable, fall back to the original otherwise.
                 ExprPtr After = Before;
                 TopDownRewrite R =
                     topDownRewriteMember(Before, C, NodeMemo);
                 if (R.Member) {
                   ExprPtr Normal = R.Member->betaNormalForm(512);
                   if (Normal) {
                     if (Params.Verbose && Normal != Before && RoundCI < 3)
                       appendf(Log, "    rewrite[%zu] %s => %s\n", RoundCI,
                               Before->show().c_str(),
                               Normal->show().c_str());
                     if (Normal->inferType())
                       After = Normal;
                   }
                 }
                 Entries[I].Program = After;
                 if (Memo)
                   Memo->emplace(Before, After);
               }
             }
           }});
    }
    if (!scoreAndAdoptBest(Result, RoundCands, Params))
      break;
  }
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

  if (Params.Backend == CompressionBackend::TopDown)
    runTopDownRounds(Result, Params);
  else
    runVersionSpaceRounds(Result, Params);

  obs::gaugeSet("compress.score_final", Result.FinalScore);

  // Re-anchor frontier priors to the final grammar.
  for (Frontier &F : Result.RewrittenFrontiers)
    F.rescore(Result.NewGrammar);
  return Result;
}
