//===- tests/core/TypeTest.cpp - Type system unit tests -------------------===//

#include "core/Type.h"

#include <gtest/gtest.h>

using namespace dc;

TEST(Type, ShowGroundTypes) {
  EXPECT_EQ(tInt()->show(), "int");
  EXPECT_EQ(tList(tInt())->show(), "list(int)");
  EXPECT_EQ(tString()->show(), "list(char)");
  EXPECT_EQ(t0()->show(), "t0");
}

TEST(Type, ShowArrows) {
  TypePtr T = Type::arrow(tInt(), tBool());
  EXPECT_EQ(T->show(), "int -> bool");
  TypePtr Curried = Type::arrows({tInt(), tInt()}, tBool());
  EXPECT_EQ(Curried->show(), "int -> int -> bool");
  TypePtr HigherOrder = Type::arrow(Type::arrow(tInt(), tBool()), tInt());
  EXPECT_EQ(HigherOrder->show(), "(int -> bool) -> int");
}

TEST(Type, ArrowAccessors) {
  TypePtr T = Type::arrows({tInt(), tBool()}, tChar());
  EXPECT_TRUE(T->isArrow());
  EXPECT_EQ(functionArity(T), 2);
  EXPECT_EQ(functionReturn(T)->show(), "char");
  auto Args = functionArguments(T);
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0]->show(), "int");
  EXPECT_EQ(Args[1]->show(), "bool");
}

TEST(Type, NonArrowHasArityZero) {
  EXPECT_EQ(functionArity(tInt()), 0);
  EXPECT_TRUE(functionArguments(tInt()).empty());
  EXPECT_EQ(functionReturn(tInt())->show(), "int");
}

TEST(Type, Monomorphism) {
  EXPECT_TRUE(tInt()->isMonomorphic());
  EXPECT_TRUE(tList(tInt())->isMonomorphic());
  EXPECT_FALSE(t0()->isMonomorphic());
  EXPECT_FALSE(tList(t0())->isMonomorphic());
}

TEST(Type, StructuralEquality) {
  EXPECT_TRUE(tList(tInt())->equals(*tList(tInt())));
  EXPECT_FALSE(tList(tInt())->equals(*tList(tBool())));
  EXPECT_TRUE(t0()->equals(*Type::variable(0)));
  EXPECT_FALSE(t0()->equals(*t1()));
}

TEST(TypeContext, FreshVariablesAreDistinct) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  EXPECT_NE(A->variableId(), B->variableId());
}

TEST(TypeContext, UnifyVariableWithGround) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(V, tInt()));
  EXPECT_EQ(Ctx.apply(V)->show(), "int");
}

TEST(TypeContext, UnifyCongruence) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(tList(V), tList(tBool())));
  EXPECT_EQ(Ctx.apply(V)->show(), "bool");
}

TEST(TypeContext, UnifyFailsOnMismatch) {
  TypeContext Ctx;
  EXPECT_FALSE(Ctx.unify(tInt(), tBool()));
  EXPECT_FALSE(Ctx.unify(tList(tInt()), tInt()));
}

TEST(TypeContext, OccursCheck) {
  TypeContext Ctx;
  TypePtr V = Ctx.makeVariable();
  EXPECT_FALSE(Ctx.unify(V, tList(V)));
}

TEST(TypeContext, UnifyThroughChains) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  EXPECT_TRUE(Ctx.unify(A, B));
  EXPECT_TRUE(Ctx.unify(B, tChar()));
  EXPECT_EQ(Ctx.apply(A)->show(), "char");
}

TEST(TypeContext, InstantiateRenamesConsistently) {
  TypeContext Ctx;
  // t0 -> t0 -> t1 must rename t0 to one fresh variable used twice.
  TypePtr Poly = Type::arrows({t0(), t0()}, t1());
  TypePtr Inst = Ctx.instantiate(Poly);
  auto Args = functionArguments(Inst);
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_TRUE(Args[0]->equals(*Args[1]));
  EXPECT_FALSE(Args[0]->equals(*functionReturn(Inst)));
}

TEST(TypeContext, UnifyArrowDecomposition) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypePtr Fn = Type::arrow(A, B);
  EXPECT_TRUE(Ctx.unify(Fn, Type::arrow(tInt(), tList(tInt()))));
  EXPECT_EQ(Ctx.apply(A)->show(), "int");
  EXPECT_EQ(Ctx.apply(B)->show(), "list(int)");
}

TEST(Type, Canonicalize) {
  TypePtr Messy = Type::arrows({Type::variable(7), Type::variable(3)},
                               Type::variable(7));
  TypePtr Canon = canonicalize(Messy);
  EXPECT_EQ(Canon->show(), "t0 -> t1 -> t0");
}

TEST(Type, CollectVariables) {
  TypePtr T = Type::arrows({t1(), t0()}, t1());
  std::vector<int> Vars;
  T->collectVariables(Vars);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars[0], 1);
  EXPECT_EQ(Vars[1], 0);
}

TEST(Type, InterningSharesEqualTypes) {
  EXPECT_EQ(tInt(), tInt());
  EXPECT_EQ(Type::constructor("int"), tInt());
  EXPECT_EQ(tList(tInt()), tList(tInt()));
  EXPECT_EQ(Type::arrow(t0(), tList(t0())), Type::arrow(t0(), tList(t0())));
  EXPECT_NE(tList(tInt()), tList(tBool()));
  EXPECT_EQ(Type::constructor("tree", {tInt()})->show(), "tree(int)");
  // Building types that already exist adds nothing to the table.
  Type::arrows({tList(tInt()), Type::arrow(t0(), t1())}, tString());
  size_t After = Type::internedCount();
  for (int I = 0; I < 100; ++I)
    Type::arrows({tList(tInt()), Type::arrow(t0(), t1())}, tString());
  EXPECT_EQ(Type::internedCount(), After);
}

TEST(TypeContext, RollbackRestoresBindingsAndNextVar) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypeContext::Mark Outer = Ctx.mark();
  TypePtr B = Ctx.makeVariable();
  ASSERT_TRUE(Ctx.unify(A, tList(B)));
  TypeContext::Mark Inner = Ctx.mark();
  TypePtr C = Ctx.makeVariable();
  ASSERT_TRUE(Ctx.unify(B, Type::arrow(C, tInt())));
  ASSERT_TRUE(Ctx.unify(C, tBool()));
  EXPECT_EQ(Ctx.apply(A)->show(), "list(bool -> int)");
  EXPECT_EQ(Ctx.variableCount(), 3);

  Ctx.rollback(Inner);
  EXPECT_EQ(Ctx.variableCount(), 2);
  EXPECT_EQ(Ctx.apply(A)->show(), "list(t1)");
  EXPECT_EQ(Ctx.apply(C)->show(), "t2");

  Ctx.rollback(Outer);
  EXPECT_EQ(Ctx.variableCount(), 1);
  EXPECT_EQ(Ctx.apply(A), A);
  // Variable numbering resumes where the mark left it, as if the rolled
  // back branch had never been tried.
  EXPECT_EQ(Ctx.makeVariable(), B);
}

TEST(TypeContext, FailedUnificationRollsBack) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  TypeContext::Mark M = Ctx.mark();
  // Binds A, then fails on the second argument.
  EXPECT_FALSE(
      Ctx.unify(Type::arrow(A, tInt()), Type::arrow(tBool(), tChar())));
  Ctx.rollback(M);
  EXPECT_EQ(Ctx.apply(A), A);
  EXPECT_TRUE(Ctx.unify(A, B));
  EXPECT_TRUE(Ctx.unify(B, tChar()));
  EXPECT_EQ(Ctx.apply(A), tChar());
}

TEST(TypeContext, OccursCheckThroughChainsAndOffsets) {
  TypeContext Ctx;
  TypePtr A = Ctx.makeVariable();
  TypePtr B = Ctx.makeVariable();
  ASSERT_TRUE(Ctx.unify(A, B));
  EXPECT_FALSE(Ctx.unify(B, tList(A)));
  EXPECT_FALSE(Ctx.unify(TypeRef{Type::arrow(tInt(), A)}, TypeRef{B}));
  // An instance at offset 2: its t0 is context variable 2, so it may not
  // contain itself either, but may contain the other instance's t0.
  TypeRef Self = Ctx.instantiateRef(Type::arrow(t0(), t0()));
  TypeRef Other = Ctx.instantiateRef(tList(t0()));
  EXPECT_EQ(Self.Offset, 2);
  EXPECT_EQ(Other.Offset, 3);
  EXPECT_FALSE(Ctx.unify(Self.arrowArgument(), TypeRef{tList(t0()), 2}));
  EXPECT_TRUE(Ctx.unify(Self.arrowArgument(), Other));
  EXPECT_EQ(Ctx.apply(Self)->show(), "list(t3) -> list(t3)");
}

TEST(TypeContext, InstancesAtDifferentOffsetsAreIndependent) {
  TypeContext Ctx;
  TypePtr Scheme = Type::arrow(t0(), t0());
  TypeRef First = Ctx.instantiateRef(Scheme);
  TypeRef Second = Ctx.instantiateRef(Scheme);
  EXPECT_TRUE(Ctx.unify(First.arrowArgument(), TypeRef{tInt()}));
  EXPECT_TRUE(Ctx.unify(Second.arrowResult(), TypeRef{tBool()}));
  EXPECT_EQ(Ctx.apply(First)->show(), "int -> int");
  EXPECT_EQ(Ctx.apply(Second)->show(), "bool -> bool");
  // Renaming instantiation numbers variables by first occurrence.
  EXPECT_EQ(Ctx.instantiate(Type::arrows({t1(), t0()}, t1()))->show(),
            "t2 -> t3 -> t2");
  EXPECT_EQ(Ctx.variableCount(), 4);
}
