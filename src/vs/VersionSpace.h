//===- vs/VersionSpace.h - Version spaces and inverse beta-reduction ------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The refactoring machinery of paper §3.1 (Figs 4 and 5): version spaces
/// compactly represent exponentially large sets of λ-calculus programs, and
/// the inverse β-reduction operators Iβ', Iβn and the substitution builder
/// S_k populate them with every ≤n-step refactoring of the programs found
/// during waking. Equivalences are aggregated E-graph-style by applying Iβn
/// at every subtree (the paper's Iβ(ρ) recursion), so e.g.
/// (* (+ 1 1) (+ 5 5)) can be rewritten to (* (double 1) (double 5)) even
/// though that needs two separate inversions.
///
/// Nodes are hash-consed into a VersionTable; node ids are strictly
/// increasing from children to parents, so the structure is acyclic and all
/// analyses are simple memoized DAG walks.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_VERSIONSPACE_H
#define DC_VS_VERSIONSPACE_H

#include "core/InternTable.h"
#include "core/Program.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace dc {

/// Handle to a node in a VersionTable.
using VsId = int;

/// Version-space constructors (paper Definition 3.1).
enum class VsKind : uint8_t {
  Void,        ///< ∅ — the empty set of programs
  Universe,    ///< Λ — the set of all programs
  Index,       ///< the singleton {$i}
  Terminal,    ///< a singleton primitive or invented routine
  Abstraction, ///< λv
  Application, ///< (f x)
  Union,       ///< ⊎V — nondeterministic choice
};

/// One hash-consed version-space node.
struct VsNode {
  VsKind Kind;
  int Index = 0;            ///< Index nodes
  ExprPtr Leaf = nullptr;   ///< Terminal nodes
  VsId Body = -1;           ///< Abstraction nodes
  VsId Fn = -1, Arg = -1;   ///< Application nodes
  std::vector<VsId> Members; ///< Union nodes (sorted, deduplicated)
};

/// Cost of an internal (application/abstraction) node during extraction;
/// leaves cost 1, so extraction minimizes leaf count with ties broken
/// toward shallower trees. Shared with the top-down rewriter
/// (vs/TopDown.h), which must price members on exactly this scale to
/// reproduce version-space extraction choices bit-for-bit.
constexpr double ExtractionEpsilonCost = 0.01;

/// Result of minimal-cost extraction (paper Fig 5A).
struct Extraction {
  double Cost = 0;
  ExprPtr Program = nullptr;
};

/// Reverse edges of a VersionTable in compressed-sparse-row form: the
/// parents of node V are Parents[Offsets[V]] .. Parents[Offsets[V + 1] - 1]
/// (a node using one child twice lists that parent twice).
struct VsParentIndex {
  std::vector<uint32_t> Offsets; ///< size() + 1 entries
  std::vector<VsId> Parents;
};

/// Arena of hash-consed version spaces with memoized refactoring operators.
class VersionTable {
public:
  VersionTable();

  //===--------------------------------------------------------------------===//
  // Constructors (all hash-consed)
  //===--------------------------------------------------------------------===//

  VsId voidSpace() const { return VoidId; }
  VsId universe() const { return UniverseId; }
  VsId index(int I);
  VsId terminal(ExprPtr Leaf);
  VsId abstraction(VsId Body);
  VsId apply(VsId Fn, VsId Arg);

  /// Union with flattening of nested unions, dedup, and ∅/Λ absorption.
  VsId unionOf(std::vector<VsId> Members);

  const VsNode &node(VsId V) const { return Nodes[V]; }
  size_t size() const { return Nodes.size(); }

  /// Embeds a concrete program as the singleton version space {ρ}.
  VsId incorporate(ExprPtr E);

  /// Structurally copies the DAG rooted at \p Root from \p Src into this
  /// table (hash-consed as usual) and returns the corresponding id here.
  /// \p Memo must be sized Src.size() and initialized to -1; reuse it
  /// across roots of the same \p Src so shared structure is copied once.
  /// This is how per-worker closure shards are folded into one master
  /// table in deterministic frontier order (see vs/Compression.cpp).
  VsId absorb(const VersionTable &Src, VsId Root, std::vector<VsId> &Memo);

  //===--------------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------------===//

  /// Membership check ρ ∈ ⟦v⟧.
  bool extensionContains(VsId V, ExprPtr E);

  /// Enumerates up to \p Limit members of ⟦v⟧ (tests and diagnostics).
  std::vector<ExprPtr> extensionSample(VsId V, int Limit);

  /// Number of programs in ⟦v⟧, saturating at \p Cap — this is how the
  /// paper counts "10^14 refactorings in a 10^6-node graph" (Fig 2).
  double extensionSize(VsId V, double Cap = 1e30);

  /// Every node id reachable from \p V (including \p V).
  std::vector<VsId> reachable(VsId V) const;

  //===--------------------------------------------------------------------===//
  // Refactoring operators (paper Fig 5)
  //===--------------------------------------------------------------------===//

  /// ↓ᵏc — downshifts free indices by \p Delta below cutoff \p Cutoff;
  /// occurrences of the skipped band become ∅ (Fig 5E).
  VsId shiftFree(VsId V, int Delta, int Cutoff = 0);

  /// ⟦a⟧ ∩ ⟦b⟧ as a version space.
  VsId intersection(VsId A, VsId B);

  /// S_k — all top-level redexes (λ body) value that β-reduce into ⟦v⟧,
  /// represented as a map value-space → union-of-body-spaces (Fig 5D).
  const std::map<VsId, VsId> &substitutions(VsId V, int K = 0);

  /// Iβ' — inverts one β-reduction step anywhere in the term (Fig 5C).
  VsId inversion(VsId V);

  /// Iβn — union of 0..n applications of Iβ' (Fig 5B).
  VsId inversionN(VsId V, int N);

  /// The paper's Iβ(ρ): applies Iβn at ρ and recursively at every subtree,
  /// aggregating all discovered equivalences into one structure (§3.1).
  VsId betaClosure(ExprPtr E, int N);

  //===--------------------------------------------------------------------===//
  // Extraction (paper Fig 5A)
  //===--------------------------------------------------------------------===//

  /// Minimal-cost member of ⟦v⟧ where leaves cost 1 and internal nodes ε;
  /// exact-cost ties break by the structural term order (exprCompare), so
  /// the chosen program depends only on the DAG's structure, never on the
  /// node-id assignment of the particular table it lives in — the property
  /// the closure-shard cache and rewrite memo are built on (DESIGN.md §8).
  /// When \p Candidate >= 0, that subspace costs 1 and extracts as
  /// \p CandidateExpr (the freshly invented library routine). The memo
  /// \p Cache must be reused only for the same (Candidate, CandidateExpr).
  Extraction extractMinimal(VsId V, VsId Candidate, ExprPtr CandidateExpr,
                            std::unordered_map<VsId, Extraction> &Cache) const;

  /// Convenience wrapper without a candidate.
  ExprPtr extractCheapest(VsId V) const;

  /// Candidate-free extraction of every node at once: entry V equals
  /// extractMinimal(V) without a candidate (same program, same cost). One
  /// ascending-id pass — children always precede their parents — so it
  /// is the cheapest way to pre-warm extraction for a whole table.
  std::vector<Extraction> extractAll() const;

  /// Candidate-free extraction on top of a read-only dense table: ids
  /// below \p Shared.size() are served from \p Shared (normally
  /// extractAll() of this table, taken before later nodes were interned);
  /// ids past its end are computed and stored in \p Overlay only. Safe to
  /// call concurrently from many threads as long as each has its own
  /// \p Overlay and nobody mutates \p Shared or the table.
  Extraction extractLayered(VsId V, const std::vector<Extraction> &Shared,
                            std::unordered_map<VsId, Extraction> &Overlay) const;

  /// Reverse edges of the table as it is now, in CSR form (see
  /// VsParentIndex). Build it after the last node is interned; coneAbove
  /// walks it.
  VsParentIndex parentIndex() const;

  /// Marks every node from whose structure \p Candidate is reachable —
  /// the "cone" of nodes whose minimal extraction can change when the
  /// candidate becomes a unit-cost invention. Indexed by VsId. Walks only
  /// the candidate's ancestors through \p Parents, which must be
  /// parentIndex() of the table at its current size.
  std::vector<char> coneAbove(VsId Candidate,
                              const VsParentIndex &Parents) const;

  /// Candidate-aware extraction that only recomputes inside the cone;
  /// nodes outside it are served by extractLayered on \p Shared
  /// (candidate-independent and read-only — misses land in
  /// \p OverlayCache instead, so many candidates can be scored
  /// concurrently against one pre-warmed table). \p OverlayCache must be
  /// specific to (Candidate, CandidateExpr).
  Extraction
  extractWithCandidate(VsId V, VsId Candidate, ExprPtr CandidateExpr,
                       const std::vector<char> &Cone,
                       const std::vector<Extraction> &Shared,
                       std::unordered_map<VsId, Extraction> &OverlayCache) const;

private:
  /// Id of the node structurally equal to \p N, appending \p N if new.
  VsId intern(VsNode N);
  bool memberContains(VsId V, ExprPtr E,
                      std::map<std::pair<VsId, ExprPtr>, bool> &Memo);

  std::vector<VsNode> Nodes;
  VsId VoidId = 0;
  VsId UniverseId = 1;

  /// Hash for the hash-consing slots and the operator-memo keys below.
  /// Neither is ever iterated, so hash order cannot reach node ids.
  struct KeyHash {
    size_t operator()(int K) const {
      return internMix(static_cast<uint32_t>(K));
    }
    size_t operator()(ExprPtr E) const {
      return internMix(reinterpret_cast<uintptr_t>(E));
    }
    size_t operator()(const std::pair<int, int> &K) const {
      return internMix(
          static_cast<uint64_t>(static_cast<uint32_t>(K.first)) << 32 |
          static_cast<uint32_t>(K.second));
    }
    size_t operator()(const std::tuple<int, int, int> &K) const {
      return internMix(
          (*this)(std::make_pair(std::get<0>(K), std::get<1>(K))) ^
          static_cast<uint32_t>(std::get<2>(K)));
    }
  };
  template <typename K, typename V>
  using HashMap = std::unordered_map<K, V, KeyHash>;

  /// Hash-consing index of every node but ∅ and Λ, probed by node content
  /// (core/InternTable.h). The table has one owner, so it takes no lock.
  /// Hashes[V] is node V's hash: a probe compares it before touching the
  /// node, and growth re-inserts from it without rehashing any node.
  InternSlots<VsId, -1> Slots;
  std::vector<uint32_t> Hashes;
  static size_t hashNode(const VsNode &N);

  // Operator memos. SubstitutionMemo's values are iterated in key order
  // by inversion(), so they stay ordered maps.
  HashMap<ExprPtr, VsId> IncorporateMemo;
  HashMap<std::tuple<VsId, int, int>, VsId> ShiftMemo;
  HashMap<std::pair<VsId, VsId>, VsId> IntersectionMemo;
  HashMap<std::pair<VsId, int>, std::map<VsId, VsId>> SubstitutionMemo;
  HashMap<VsId, VsId> InversionMemo;
  HashMap<std::pair<VsId, int>, VsId> InversionNMemo;
  HashMap<VsId, double> SizeMemo;
};

} // namespace dc

#endif // DC_VS_VERSIONSPACE_H
