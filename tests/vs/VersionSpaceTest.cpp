//===- tests/vs/VersionSpaceTest.cpp - Version space unit tests -----------===//
//
// Exercises the paper's Fig 5 operators, including the consistency property
// (Theorem G.5): every program in ⟦Iβ'(v)⟧ β-reduces to a program in ⟦v⟧.
//
//===----------------------------------------------------------------------===//

#include "vs/VersionSpace.h"

#include "core/Primitives.h"
#include "core/ProgramParser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

using namespace dc;

namespace {

class VersionSpaceTest : public ::testing::Test {
protected:
  void SetUp() override {
    prims::functionalCore();
    prims::arithmeticExtras();
    prims::mcCarthy1959();
  }

  VersionTable VT;
};

} // namespace

TEST_F(VersionSpaceTest, HashConsing) {
  EXPECT_EQ(VT.index(3), VT.index(3));
  EXPECT_NE(VT.index(3), VT.index(4));
  ExprPtr Plus = lookupPrimitive("+");
  EXPECT_EQ(VT.terminal(Plus), VT.terminal(Plus));
  VsId A = VT.apply(VT.terminal(Plus), VT.index(0));
  VsId B = VT.apply(VT.terminal(Plus), VT.index(0));
  EXPECT_EQ(A, B);
}

TEST_F(VersionSpaceTest, VoidAbsorbsStructure) {
  EXPECT_EQ(VT.abstraction(VT.voidSpace()), VT.voidSpace());
  EXPECT_EQ(VT.apply(VT.voidSpace(), VT.index(0)), VT.voidSpace());
  EXPECT_EQ(VT.apply(VT.index(0), VT.voidSpace()), VT.voidSpace());
}

TEST_F(VersionSpaceTest, UnionNormalization) {
  VsId I0 = VT.index(0);
  VsId I1 = VT.index(1);
  // ∅ members vanish; singletons collapse; Λ absorbs.
  EXPECT_EQ(VT.unionOf({VT.voidSpace()}), VT.voidSpace());
  EXPECT_EQ(VT.unionOf({I0, VT.voidSpace()}), I0);
  EXPECT_EQ(VT.unionOf({I0, VT.universe()}), VT.universe());
  VsId U = VT.unionOf({I0, I1});
  EXPECT_EQ(VT.unionOf({I1, I0}), U) << "unions are order independent";
  EXPECT_EQ(VT.unionOf({U, I0}), U) << "nested unions flatten";
}

TEST_F(VersionSpaceTest, IncorporateExtractRoundTrip) {
  const char *Sources[] = {
      "(+ 5 5)",
      "(lambda (+ $0 1))",
      "(lambda (map (lambda (+ $0 $0)) $0))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    VsId V = VT.incorporate(P);
    EXPECT_EQ(VT.extractCheapest(V), P) << Src;
    EXPECT_TRUE(VT.extensionContains(V, P)) << Src;
  }
}

TEST_F(VersionSpaceTest, ExtensionOfSingletonIsSingleton) {
  ExprPtr P = parseProgram("(+ 5 5)");
  VsId V = VT.incorporate(P);
  EXPECT_DOUBLE_EQ(VT.extensionSize(V), 1.0);
  auto Sample = VT.extensionSample(V, 10);
  ASSERT_EQ(Sample.size(), 1u);
  EXPECT_EQ(Sample[0], P);
}

TEST_F(VersionSpaceTest, ShiftFreeSemantics) {
  // ($0 $2) under one binder: $0 bound, $2 free referring two levels out;
  // removing one outer binder turns $2 into $1.
  ExprPtr P = parseProgram("(lambda ($0 $2))");
  VsId V = VT.incorporate(P);
  VsId Down = VT.shiftFree(V, -1);
  EXPECT_EQ(VT.extractCheapest(Down), parseProgram("(lambda ($0 $1))"));
  // A variable referring exactly to the removed binder vanishes: ($0 $1)
  // under one binder downshifts to ∅ because $1 is in the band (Fig 5E).
  ExprPtr Q = parseProgram("(lambda ($0 $1))");
  EXPECT_EQ(VT.shiftFree(VT.incorporate(Q), -1), VT.voidSpace());
  // Downshifting a variable in the vanishing band yields ∅.
  VsId V0 = VT.index(0);
  EXPECT_EQ(VT.shiftFree(V0, -1, 0), VT.voidSpace());
  // Upshift is total.
  EXPECT_EQ(VT.shiftFree(V0, 2, 0), VT.index(2));
}

TEST_F(VersionSpaceTest, IntersectionBasics) {
  VsId A = VT.incorporate(parseProgram("(+ 1 1)"));
  VsId B = VT.incorporate(parseProgram("(+ 1 0)"));
  EXPECT_EQ(VT.intersection(A, A), A);
  EXPECT_EQ(VT.intersection(A, B), VT.voidSpace());
  EXPECT_EQ(VT.intersection(A, VT.universe()), A);
  EXPECT_EQ(VT.intersection(A, VT.voidSpace()), VT.voidSpace());
  VsId U = VT.unionOf({A, B});
  EXPECT_EQ(VT.intersection(U, A), A);
}

TEST_F(VersionSpaceTest, InversionFindsTheFigFourRefactorings) {
  // Fig 4: refactorings of (+ 5 5) abstracting out the 5s.
  ExprPtr P = parseProgram("(+ 5 5)");
  VsId Inv = VT.inversion(VT.incorporate(P));
  const char *Expected[] = {
      "((lambda (+ $0 $0)) 5)",
      "((lambda (+ $0 5)) 5)",
      "((lambda (+ 5 $0)) 5)",
  };
  for (const char *Src : Expected) {
    ExprPtr R = parseProgram(Src);
    ASSERT_NE(R, nullptr) << Src;
    EXPECT_TRUE(VT.extensionContains(Inv, R)) << Src;
  }
  // The "double" abstraction is exactly the shared-body case.
  ExprPtr Double = parseProgram("((lambda (+ $0 $0)) 5)");
  EXPECT_TRUE(VT.extensionContains(Inv, Double));
}

TEST_F(VersionSpaceTest, InversionIsConsistent) {
  // Theorem G.5: every member of Iβ'(v) β-reduces into ⟦v⟧.
  const char *Sources[] = {
      "(+ 5 5)",
      "(lambda (+ $0 1))",
      "(lambda (cons (car $0) nil))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    VsId Inv = VT.inversion(VT.incorporate(P));
    for (ExprPtr R : VT.extensionSample(Inv, 80)) {
      ExprPtr Reduced = R->betaNormalForm(128);
      EXPECT_EQ(Reduced, P) << "refactoring " << R->show()
                            << " does not reduce to " << Src;
    }
  }
}

TEST_F(VersionSpaceTest, NStepInversionGrowsMonotonically) {
  ExprPtr P = parseProgram("(lambda (+ (+ $0 1) 1))");
  VsId V = VT.incorporate(P);
  double S0 = VT.extensionSize(VT.inversionN(V, 0));
  double S1 = VT.extensionSize(VT.inversionN(V, 1));
  double S2 = VT.extensionSize(VT.inversionN(V, 2));
  EXPECT_EQ(S0, 1.0);
  EXPECT_GT(S1, S0);
  EXPECT_GE(S2, S1);
}

TEST_F(VersionSpaceTest, BetaClosureAggregatesSubtreeEquivalences) {
  // The paper's (* (+ 1 1) (+ 5 5)) example: one-step inversion at each
  // subtree exposes (double 1) and (double 5) *simultaneously*, which a
  // single global Iβ1 cannot.
  ExprPtr P = parseProgram("(* (+ 1 1) (+ 5 5))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 1);
  ExprPtr Both = parseProgram(
      "(* ((lambda (+ $0 $0)) 1) ((lambda (+ $0 $0)) 5))");
  ASSERT_NE(Both, nullptr);
  EXPECT_TRUE(VT.extensionContains(Closure, Both));
  // But a lone Iβ1 at the root does not contain the double rewrite.
  VersionTable Fresh;
  VsId RootOnly = Fresh.inversionN(Fresh.incorporate(P), 1);
  EXPECT_FALSE(Fresh.extensionContains(RootOnly, Both));
}

TEST_F(VersionSpaceTest, BetaClosureMembersReduceToOriginal) {
  ExprPtr P = parseProgram("(lambda (cons (+ (car $0) (car $0)) nil))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 2);
  int Checked = 0;
  for (ExprPtr R : VT.extensionSample(Closure, 120)) {
    ExprPtr Reduced = R->betaNormalForm(256);
    EXPECT_EQ(Reduced, P) << R->show();
    ++Checked;
  }
  EXPECT_GT(Checked, 10);
}

TEST_F(VersionSpaceTest, ExtractMinimalPrefersCandidate) {
  // Anchor the "double" idiom at the hash-consed open term (+ $0 $0); the
  // closure of (* (+ 5 5) (+ 7 7)) exposes that node twice, and
  // candidate-aware extraction should rewrite both occurrences to the
  // invention applied to the abstracted value.
  ExprPtr P = parseProgram("(* (+ 5 5) (+ 7 7))");
  ASSERT_NE(P, nullptr);
  VsId Closure = VT.betaClosure(P, 2);
  ExprPtr OpenTerm = parseProgram("(+ $0 $0)");
  VsId Anchor = VT.incorporate(OpenTerm);
  auto Reach = VT.reachable(Closure);
  ASSERT_NE(std::find(Reach.begin(), Reach.end(), Anchor), Reach.end())
      << "closure must expose the open double term";

  ExprPtr Invention = Expr::invented(parseProgram("(lambda (+ $0 $0))"));
  ExprPtr Rewrite = Expr::application(Invention, Expr::index(0));
  std::vector<char> Cone = VT.coneAbove(Anchor, VT.parentIndex());
  std::vector<Extraction> Shared = VT.extractAll();
  std::unordered_map<VsId, Extraction> Overlay;
  Extraction E =
      VT.extractWithCandidate(Closure, Anchor, Rewrite, Cone, Shared,
                              Overlay);
  ASSERT_NE(E.Program, nullptr);
  ExprPtr Normal = E.Program->betaNormalForm(128);
  EXPECT_EQ(Normal->show(),
            "(* (#(lambda (+ $0 $0)) 5) (#(lambda (+ $0 $0)) 7))");
}

namespace {

/// β-closures of a few list programs merged into one table, the way
/// abstraction sleep builds its master table.
void buildListClosures(VersionTable &VT) {
  const char *Sources[] = {
      "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
      "(lambda (cons (+ (car $0) (car $0)) nil))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    VT.betaClosure(P, 2);
  }
}

} // namespace

TEST_F(VersionSpaceTest, ConeWalkMatchesReachability) {
  buildListClosures(VT);
  // Brute force: U is above C exactly when C is reachable from U.
  const size_t N = VT.size();
  std::vector<std::vector<VsId>> Above(N);
  for (size_t U = 0; U < N; ++U)
    for (VsId C : VT.reachable(static_cast<VsId>(U)))
      Above[C].push_back(static_cast<VsId>(U));
  VsParentIndex Parents = VT.parentIndex();
  for (size_t C = 0; C < N; ++C) {
    std::vector<char> Expected(N, 0);
    for (VsId U : Above[C])
      Expected[U] = 1;
    ASSERT_EQ(VT.coneAbove(static_cast<VsId>(C), Parents), Expected)
        << "cone of node " << C << " in a table of " << N;
  }
}

TEST_F(VersionSpaceTest, ExtractAllMatchesExtractMinimal) {
  buildListClosures(VT);
  // A union whose members tie on cost: exprCompare, not member position,
  // must pick (+ 1 5), the member with the larger node id.
  VsId First = VT.incorporate(parseProgram("(+ 5 1)"));
  VsId Second = VT.incorporate(parseProgram("(+ 1 5)"));
  ASSERT_LT(First, Second);
  VsId Tie = VT.unionOf({First, Second});
  ASSERT_EQ(VT.node(Tie).Kind, VsKind::Union);

  std::vector<Extraction> All = VT.extractAll();
  ASSERT_EQ(All.size(), VT.size());
  std::unordered_map<VsId, Extraction> Cache;
  for (size_t V = 0; V < VT.size(); ++V) {
    Extraction Ref =
        VT.extractMinimal(static_cast<VsId>(V), -1, nullptr, Cache);
    EXPECT_EQ(All[V].Program, Ref.Program) << "node " << V;
    EXPECT_EQ(All[V].Cost, Ref.Cost) << "node " << V;
    EXPECT_EQ(All[V].Program, VT.extractCheapest(static_cast<VsId>(V)));
  }
  EXPECT_EQ(All[Tie].Program, parseProgram("(+ 1 5)"));
  EXPECT_EQ(All[First].Cost, All[Second].Cost);
}

TEST_F(VersionSpaceTest, ReachableIncludesSelfAndChildren) {
  ExprPtr P = parseProgram("(+ 1 0)");
  VsId V = VT.incorporate(P);
  auto R = VT.reachable(V);
  EXPECT_GE(R.size(), 4u); // app, app, +, 1, 0 (shared where equal)
  EXPECT_NE(std::find(R.begin(), R.end(), V), R.end());
}

TEST_F(VersionSpaceTest, Fig2CompressionRatio) {
  // A scaled-down version of the paper's headline claim: the closure graph
  // is dramatically smaller than the number of refactorings it represents.
  ExprPtr P = parseProgram(
      "(lambda (fix (lambda (lambda (if (is-nil $0) nil "
      "(cons (+ (car $0) (car $0)) ($1 (cdr $0)))))) $0))");
  ASSERT_NE(P, nullptr);
  size_t Before = VT.size();
  VsId Closure = VT.betaClosure(P, 2);
  size_t GraphNodes = VT.size() - Before;
  double Refactorings = VT.extensionSize(Closure, 1e18);
  EXPECT_GT(Refactorings, static_cast<double>(GraphNodes) * 10)
      << "the version space must be a compressed representation";
}

TEST_F(VersionSpaceTest, NodeIdsMatchGolden) {
  // Pins node identity and id assignment: an FNV-1a digest over every
  // node of the n=3 closures of the list programs, as (id, kind, child
  // ids, leaf). Ids are assigned in intern order, so a change to the
  // hash-consing table that merged, split or reordered nodes moves the
  // digest. A digest that moves is a determinism break, not a constant
  // to refresh.
  const char *Sources[] = {
      "(lambda (map (lambda (+ $0 $0)) (cdr $0)))",
      "(lambda (cons (+ (car $0) (car $0)) nil))",
      "(lambda (fold (lambda (lambda (+ $1 $0))) 0 $0))",
  };
  for (const char *Src : Sources) {
    ExprPtr P = parseProgram(Src);
    ASSERT_NE(P, nullptr) << Src;
    VT.betaClosure(P, 3);
  }
  std::uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](const void *Data, size_t N) {
    const auto *Bytes = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < N; ++I) {
      H ^= Bytes[I];
      H *= 0x100000001b3ULL;
    }
  };
  auto MixInt = [&Mix](long V) { Mix(&V, sizeof V); };
  for (size_t V = 0; V < VT.size(); ++V) {
    const VsNode &N = VT.node(static_cast<VsId>(V));
    MixInt(static_cast<long>(V));
    MixInt(static_cast<long>(N.Kind));
    switch (N.Kind) {
    case VsKind::Index:
      MixInt(N.Index);
      break;
    case VsKind::Terminal: {
      std::string Leaf = N.Leaf->show();
      Mix(Leaf.c_str(), Leaf.size() + 1);
      break;
    }
    case VsKind::Abstraction:
      MixInt(N.Body);
      break;
    case VsKind::Application:
      MixInt(N.Fn);
      MixInt(N.Arg);
      break;
    case VsKind::Union:
      for (VsId M : N.Members)
        MixInt(M);
      MixInt(-1);
      break;
    default:
      break;
    }
  }
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(H));
  EXPECT_EQ(VT.size(), 70469u);
  EXPECT_EQ(std::string(Hex), "e0a8fb48d39f5578");
}
