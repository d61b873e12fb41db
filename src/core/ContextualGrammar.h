//===- core/ContextualGrammar.h - Bigram-parameterized grammars -----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bigram parameterization of §4: instead of one weight vector shared by
/// every hole, the distribution over a hole's contents conditions on the
/// immediate parent in the syntax tree and on which argument of that parent
/// is being generated. This is what lets the recognition model break
/// syntactic symmetries (e.g. forbid 0 as an argument of +) while remaining
/// cheap enough to drive enumerative search: the neural net runs once per
/// task, emitting the transition tensor Q[parent, argIndex, child].
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_CONTEXTUALGRAMMAR_H
#define DC_CORE_CONTEXTUALGRAMMAR_H

#include "core/Grammar.h"

namespace dc {

/// A family of unigram grammars indexed by syntactic slot. All slots share
/// the same production list (the library) and one signature table; only
/// weights differ.
class ContextualGrammar : public EnumerationSource {
public:
  ContextualGrammar() = default;

  /// Builds a contextual grammar whose every slot equals \p Base.
  explicit ContextualGrammar(const Grammar &Base);

  /// The underlying library (productions shared by every slot).
  const std::vector<Production> &productions() const {
    return Start.productions();
  }

  /// Number of distinct parent slots: one per production plus start and
  /// variable parents.
  int parentCount() const {
    return static_cast<int>(Start.productions().size()) + 2;
  }

  /// Largest argument count of any production (slots exist per argument).
  int maxArity() const;

  /// Mutable access to the grammar governing one slot. \p ParentIdx is a
  /// production index, ParentStart, or ParentVariable; \p ArgIdx is clamped
  /// to the production's arity.
  Grammar &slot(int ParentIdx, int ArgIdx);
  const Grammar &slot(int ParentIdx, int ArgIdx) const;

  const std::vector<ProductionSignature> &signatures() const override {
    return Start.signatures();
  }

  void candidates(int ParentIdx, int ArgIdx, TypeRef Request,
                  const TypeEnv *Env, TypeContext &Ctx,
                  std::vector<GrammarCandidate> &Out) const override;

private:
  Grammar Start;                      ///< root slot
  Grammar Variable;                   ///< arguments of applied variables
  std::vector<std::vector<Grammar>> PerParent; ///< [production][argIdx]
};

} // namespace dc

#endif // DC_CORE_CONTEXTUALGRAMMAR_H
