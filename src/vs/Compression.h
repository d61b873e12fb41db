//===- vs/Compression.h - Abstraction sleep: library learning -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstraction-sleep phase (paper §3): grow the library D with new
/// routines that compress the programs discovered during waking, optimizing
/// the Eq. 4 objective
///
///   log P[D] + Σ_x log Σ_{ρ∈B_x} P[x|ρ] · max_{ρ' →β* ρ} P[ρ'|D,θ]
///            + log P[θ|D] − |θ|₀
///
/// Candidate routines are proposed from the version spaces of all ≤n-step
/// refactorings of the beam programs (vs/VersionSpace.h) — or, once those
/// overflow MaxVersionNodes, by the top-down proposer (vs/TopDown.h); each
/// candidate is scored by rewriting every beam program to its minimal form
/// under the extended library, refitting θ, and evaluating the objective.
/// The best candidate is adopted greedily until no candidate improves the
/// score.
///
/// Setting refactoring steps to 0 recovers the EC baseline (subtree
/// proposals only); see WakeSleep's baseline modes.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_COMPRESSION_H
#define DC_VS_COMPRESSION_H

#include "core/Grammar.h"
#include "core/Task.h"

#include <set>
#include <vector>

namespace dc {

/// Which candidate-proposal engine abstraction sleep runs (DESIGN.md §10).
/// Both backends feed the same libraryScore/adoption machinery and share
/// the determinism contract; they differ only in how candidates are found
/// and how beams are rewritten under a candidate:
///
///  * VersionSpace — materialize the ≤n-step β-inversion closure of every
///    beam program (paper §4) and rank its nodes. Complete up to the
///    inversion depth. The first round whose closure overflows
///    MaxVersionNodes hands the rest of the sleep to TopDown.
///  * TopDown — grow candidate patterns hole-by-hole over the beam syntax
///    (corpus-guided, à la "Top-Down Synthesis for Library Learning",
///    Bowers et al., POPL 2023), never building version spaces. Orders of
///    magnitude cheaper on closure-heavy corpora; proposes literal common
///    subtrees plus single-variable capture patterns.
enum class CompressionBackend { VersionSpace, TopDown };

/// Knobs for one abstraction-sleep phase.
struct CompressionParams {
  CompressionBackend Backend = CompressionBackend::VersionSpace;
  int RefactorSteps = 3;      ///< n in Iβn (paper uses 3); 0 = EC baseline
  double StructurePenalty = 0.5; ///< λ in log P[D] ∝ -λ Σ size(routine)
  double AicWeight = 0.5;     ///< weight of the |θ|₀ model-size penalty
  double PseudoCounts = 0.3;  ///< Dirichlet smoothing when refitting θ
  int MaxCandidates = 150;    ///< candidates scored per greedy round
  int MaxNewInventions = 12;  ///< cap on routines added per sleep phase
  /// Candidates must occur in the refactorings of at least this many beams.
  int MinimumTasksCovered = 2;
  /// Safety valve: a round whose version space would exceed this many
  /// nodes switches the sleep to top-down proposals.
  size_t MaxVersionNodes = 4000000;
  /// Worker threads for the three compression fan-outs (per-program
  /// β-closure shards, candidate scoring, likelihood summaries): 0 = one
  /// per hardware core, 1 = serial, N = at most N. Results are
  /// bit-identical at every setting (see DESIGN.md, threading model).
  int NumThreads = 1;
  /// Master switch for the content-addressed closure-shard cache and the
  /// cross-round rewrite memo. Both caches only skip recomputing pure
  /// values, so results are bit-identical with caching on or off —
  /// bench_vs_cache gates this at 1/4/8 threads.
  bool UseVsCache = true;
  /// TopDown backend only: cap on pattern states expanded per proposal
  /// round before the proposer stops refining (branch-and-bound still
  /// prunes below the cap). Literal-subtree candidates are enumerated
  /// outside this budget, so exhaustion degrades recall of capture
  /// patterns, never of common subtrees.
  int TopDownExpansionBudget = 100000;
  bool Verbose = false;
};

/// Result of one abstraction-sleep phase.
struct CompressionResult {
  Grammar NewGrammar;
  std::vector<Frontier> RewrittenFrontiers; ///< beams re-expressed under D'
  std::vector<ExprPtr> NewInventions;
  double InitialScore = 0;
  double FinalScore = 0;
};

/// Runs abstraction sleep: returns the grammar extended with the routines
/// that most increase the Eq. 4 objective, with all frontier programs
/// rewritten in terms of the new library. Frontiers with no entries pass
/// through unchanged.
CompressionResult compressLibrary(const Grammar &G,
                                  const std::vector<Frontier> &Frontiers,
                                  const CompressionParams &Params = {});

/// The Eq. 4 objective for a fixed structure: refits θ on the frontiers
/// (one EM step with Dirichlet smoothing) and returns the joint score.
/// Exposed for tests and for the memorize/EC baselines.
double libraryScore(Grammar &G, const std::vector<Frontier> &Frontiers,
                    const CompressionParams &Params = {});

namespace detail {

/// Rewrites \p Term so that free index Free[J] becomes the (K-J)-th
/// innermost of K fresh enclosing lambdas, then wraps the lambdas — the
/// "close the invention over its free variables" step of candidate
/// proposal. Returns nullptr when some free index of \p Term is missing
/// from \p Free (an incomplete closure set would otherwise silently
/// miscapture the invention body); callers skip such candidates. Exposed
/// for tests.
ExprPtr closeOverFreeIndices(ExprPtr Term, const std::vector<int> &Free);

/// Collects the distinct free de Bruijn indices of \p E relative to its
/// root (\p Depth binders already crossed), ascending. Shared by both
/// proposal backends so a term closes over the same variable set either
/// way.
void collectFreeIndices(ExprPtr E, int Depth, std::set<int> &Out);

/// The shared "nontrivial routine" admission test (see Compression.cpp):
/// closed, well-typed, ≥2 primitives (or one plus a duplicated variable),
/// and not already a production of \p G. Both backends must apply the
/// identical filter or their candidate sets drift apart.
bool isUsefulInventionBody(ExprPtr Body, const Grammar &G);

} // namespace detail

} // namespace dc

#endif // DC_VS_COMPRESSION_H
