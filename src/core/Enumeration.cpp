//===- core/Enumeration.cpp - Type-directed enumerative search ------------===//

#include "core/Enumeration.h"

#include "core/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>

using namespace dc;

namespace {

constexpr double NegInf = -std::numeric_limits<double>::infinity();

/// Candidate buffer size for parallel likelihood testing: big enough to
/// amortize worker scheduling, small enough to bound memory while a
/// window's enumeration is paused for testing.
constexpr size_t TestBatchSize = 2048;

/// Candidate expansions between ShouldStop polls (deadline / cancellation
/// checks): coarse enough that the clock read is amortized away, fine
/// enough that an expired deadline is noticed within a fraction of a
/// millisecond of search.
constexpr long StopCheckInterval = 256;

/// A non-owning reference to a callable: two pointers, no allocation. The
/// referenced callable must outlive the reference (every use below passes
/// a lambda living in the caller's frame).
template <typename Fn> class FunctionRef;
template <typename R, typename... Args> class FunctionRef<R(Args...)> {
public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cv_t<F>, FunctionRef>)
  FunctionRef(F &Callable)
      : Obj(&Callable), Call([](void *O, Args... A) -> R {
          return (*static_cast<F *>(O))(std::forward<Args>(A)...);
        }) {}
  R operator()(Args... A) const { return Call(Obj, std::forward<Args>(A)...); }

private:
  void *Obj;
  R (*Call)(void *, Args...);
};

/// Recursive enumerator core in continuation-passing style. Emits
/// (program, cost) pairs for every program of the request with cost below
/// the budget; returns false when the sink aborted the search.
///
/// One TypeContext serves the whole search. A candidate's bindings are
/// made on entry to its subtree and rolled back when the subtree's
/// enumeration returns; continuations run inside that window, so a later
/// argument sees the bindings of the earlier arguments that precede it in
/// the current program, exactly as a context copied down the path would.
class Enumerator {
public:
  Enumerator(const EnumerationSource &Src, long &Nodes,
             const std::function<bool()> &ShouldStop)
      : Src(Src), Nodes(Nodes), ShouldStop(ShouldStop) {}

  using Sink = FunctionRef<bool(ExprPtr, double)>;

  /// Enumerates at \p Request with remaining budget \p Budget (nats).
  bool enumerate(int ParentIdx, int ArgIdx, const TypeEnv *Env,
                 TypeRef Request, double Budget, Sink Emit) {
    if (Budget <= 0)
      return true;
    TypeRef Req = Ctx.resolve(Request);

    if (Req.T->isArrow()) {
      TypeEnv Frame{Req.arrowArgument(), Env};
      auto Wrap = [&](ExprPtr Body, double Cost) {
        return Emit(Expr::abstraction(Body), Cost);
      };
      return enumerate(ParentIdx, ArgIdx, &Frame, Req.arrowResult(), Budget,
                       Sink(Wrap));
    }

    // This hole's candidates occupy [Begin, End) of the shared stack;
    // nested holes push theirs above and pop them before returning.
    const size_t Begin = Cands.size();
    Src.candidates(ParentIdx, ArgIdx, Req, Env, Ctx, Cands);
    const size_t End = Cands.size();
    bool Ok = true;
    for (size_t I = Begin; Ok && I < End; ++I) {
      const GrammarCandidate C = Cands[I];
      double Cost = -C.LogProb;
      if (Cost >= Budget)
        continue;
      if (--Nodes <= 0) {
        Ok = false;
        break;
      }
      // Deadline/cancellation poll at candidate-batch granularity. The
      // branch on the empty default keeps the deterministic path free of
      // clock reads entirely.
      if (ShouldStop && ++SinceStopCheck >= StopCheckInterval) {
        SinceStopCheck = 0;
        if (ShouldStop()) {
          Ok = false;
          break;
        }
      }
      const TypeContext::Mark M = Ctx.mark();
      const size_t ArgBegin = ArgTypes.size();
      bindCandidate(Src, C, Req, Env, Ctx, ArgTypes);
      const size_t Arity = ArgTypes.size() - ArgBegin;
      int ChildParent =
          C.ProductionIdx >= 0 ? C.ProductionIdx : ParentVariable;
      Ok = enumerateApplication(ChildParent, Env, C.Leaf, Cost, ArgBegin,
                                Arity, 0, Budget, Emit);
      ArgTypes.resize(ArgBegin);
      Ctx.rollback(M);
    }
    Cands.resize(Begin);
    return Ok;
  }

  TypeContext Ctx;

private:
  /// Fills argument holes of \p Fn left to right; their types are
  /// ArgTypes[ArgBegin, ArgBegin + Arity). \p Env is the environment at the
  /// spine's decision point — inner binders of earlier arguments are not
  /// in scope here.
  bool enumerateApplication(int ChildParent, const TypeEnv *Env, ExprPtr Fn,
                            double CostSoFar, size_t ArgBegin, size_t Arity,
                            size_t Idx, double Budget, Sink Emit) {
    if (Idx == Arity)
      return Emit(Fn, CostSoFar);
    auto Next = [&](ExprPtr Arg, double ArgCost) {
      return enumerateApplication(ChildParent, Env,
                                  Expr::application(Fn, Arg),
                                  CostSoFar + ArgCost, ArgBegin, Arity,
                                  Idx + 1, Budget, Emit);
    };
    return enumerate(ChildParent, static_cast<int>(Idx), Env,
                     ArgTypes[ArgBegin + Idx], Budget - CostSoFar,
                     Sink(Next));
  }

  const EnumerationSource &Src;
  long &Nodes;
  const std::function<bool()> &ShouldStop;
  long SinceStopCheck = 0;
  /// Candidate and argument-type stacks shared by every depth.
  std::vector<GrammarCandidate> Cands;
  std::vector<TypeRef> ArgTypes;
};

/// Builds the ShouldStop predicate for one search: cancellation first (one
/// relaxed load), then the wall-clock deadline. Returns an empty function
/// when neither knob is set so the hot path stays branch-predictable and
/// clock-free. \p Interrupted records why the search stopped early.
std::function<bool()>
makeShouldStop(const EnumerationParams &Params,
               std::chrono::steady_clock::time_point Deadline,
               bool &Interrupted) {
  if (!Params.Cancel && Params.WallTimeoutSeconds <= 0)
    return {};
  const bool HasDeadline = Params.WallTimeoutSeconds > 0;
  CancellationToken *Cancel = Params.Cancel;
  return [Cancel, HasDeadline, Deadline, &Interrupted] {
    if (Cancel && Cancel->cancelled()) {
      Interrupted = true;
      return true;
    }
    if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
      Interrupted = true;
      return true;
    }
    return false;
  };
}

std::chrono::steady_clock::time_point
deadlineFor(const EnumerationParams &Params) {
  if (Params.WallTimeoutSeconds <= 0)
    return {};
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(Params.WallTimeoutSeconds));
}

/// Mirrors one finished search (task or request-type group) into the
/// metrics registry: totals as counters, effort/depth distributions as
/// log-bin histograms. Called once per search, off the hot path.
void recordSearchMetrics(long NodesExpanded, long ProgramsEnumerated,
                         long CandidatesTested, int Windows,
                         double BudgetReached) {
  if (obs::Telemetry::disabled())
    return;
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.counter("enum.nodes_expanded").add(NodesExpanded);
  R.counter("enum.programs_enumerated").add(ProgramsEnumerated);
  R.counter("enum.candidates_tested").add(CandidatesTested);
  R.histogram("enum.windows_searched").observe(Windows);
  R.histogram("enum.budget_reached").observe(BudgetReached);
}

} // namespace

void dc::enumerateWindow(const EnumerationSource &Src, const TypePtr &Request,
                         double Lower, double Upper, long &Nodes,
                         const std::function<bool(ExprPtr, double)> &Emit,
                         const std::function<bool()> &ShouldStop) {
  Enumerator E(Src, Nodes, ShouldStop);
  TypeRef Req = E.Ctx.instantiateRef(canonicalize(Request));
  auto Top = [&](ExprPtr P, double Cost) {
    if (Cost < Lower)
      return true; // reported by an earlier window
    return Emit(P, -Cost);
  };
  E.enumerate(ParentStart, 0, nullptr, Req, Upper, Enumerator::Sink(Top));
}

void EnumerationStats::merge(const EnumerationStats &Other) {
  NodesExpanded += Other.NodesExpanded;
  ProgramsEnumerated += Other.ProgramsEnumerated;
  BudgetReached = std::max(BudgetReached, Other.BudgetReached);
  EffortToSolve.insert(EffortToSolve.end(), Other.EffortToSolve.begin(),
                       Other.EffortToSolve.end());
  Interrupted = Interrupted || Other.Interrupted;
}

Frontier dc::solveTask(const EnumerationSource &Src, const TaskPtr &T,
                       const EnumerationParams &Params,
                       EnumerationStats *Stats) {
  obs::ScopedSpan Span("enum.solveTask");
  Frontier F(T);
  long Nodes = Params.NodeBudget;
  long Seen = 0;
  long EffortAtSolve = -1;
  int Windows = 0;
  int WindowsSinceSolved = -1;
  double Lower = 0;
  double Upper = Params.InitialBudget;
  const bool Parallel =
      ThreadPool::resolveThreadCount(Params.NumThreads) > 1;
  bool Interrupted = false;
  const std::function<bool()> ShouldStop =
      makeShouldStop(Params, deadlineFor(Params), Interrupted);

  // The per-candidate fold, shared by both paths: candidates arrive in
  // enumeration order with their likelihood already computed, so the
  // effort counter and the frontier evolve identically either way.
  auto Fold = [&](ExprPtr P, double LogPrior, double LL) {
    ++Seen;
    if (LL == NegInf)
      return;
    if (F.empty() && EffortAtSolve < 0)
      EffortAtSolve = Seen;
    F.record({P, LogPrior, LL}, Params.FrontierSize);
  };

  while (Lower < Params.MaxBudget && Nodes > 0 && !Interrupted) {
    ++Windows;
    if (!Parallel) {
      enumerateWindow(Src, T->request(), Lower, Upper, Nodes,
                      [&](ExprPtr P, double LogPrior) {
                        Fold(P, LogPrior, T->logLikelihood(P));
                        return true;
                      },
                      ShouldStop);
    } else {
      // Parallel candidate testing: enumeration itself stays serial (the
      // node-budget accounting is what makes searches deterministic and
      // is three orders of magnitude cheaper than running candidates),
      // buffering batches whose evaluator calls fan out across workers.
      // Results fold back in enumeration order — bit-identical to the
      // serial path at any thread count.
      std::vector<std::pair<ExprPtr, double>> Batch;
      std::vector<double> LL;
      auto Flush = [&] {
        if (Batch.empty())
          return;
        LL.resize(Batch.size());
        parallelFor(Params.NumThreads, Batch.size(), [&](size_t I) {
          LL[I] = T->logLikelihood(Batch[I].first);
        });
        for (size_t I = 0; I < Batch.size(); ++I)
          Fold(Batch[I].first, Batch[I].second, LL[I]);
        Batch.clear();
      };
      enumerateWindow(Src, T->request(), Lower, Upper, Nodes,
                      [&](ExprPtr P, double LogPrior) {
                        Batch.emplace_back(P, LogPrior);
                        if (Batch.size() >= TestBatchSize)
                          Flush();
                        return true;
                      },
                      ShouldStop);
      // Candidates enumerated before an interruption still get tested:
      // a request that found its solution just before the deadline
      // reports it.
      Flush();
    }
    if (!F.empty()) {
      if (WindowsSinceSolved < 0)
        WindowsSinceSolved = 0;
      else
        ++WindowsSinceSolved;
      if (WindowsSinceSolved >= Params.ExtraWindowsAfterSolution)
        break;
    }
    Lower = Upper;
    Upper += Params.BudgetStep;
  }

  if (Stats) {
    Stats->NodesExpanded += Params.NodeBudget - Nodes;
    Stats->ProgramsEnumerated += Seen;
    Stats->BudgetReached = std::max(Stats->BudgetReached, Upper);
    Stats->EffortToSolve.push_back(EffortAtSolve);
    Stats->Interrupted = Stats->Interrupted || Interrupted;
  }
  recordSearchMetrics(Params.NodeBudget - Nodes, Seen, Seen, Windows,
                      Upper);
  if (obs::Telemetry::enabled()) {
    obs::countAdd("enum.tasks_searched");
    if (Interrupted)
      obs::countAdd("enum.searches_interrupted");
    if (!F.empty()) {
      obs::countAdd("enum.tasks_solved");
      obs::observe("enum.effort_to_solve",
                   static_cast<double>(EffortAtSolve));
    }
  }
  return F;
}

std::vector<Frontier> dc::solveTasks(const Grammar &G,
                                     const std::vector<TaskPtr> &Tasks,
                                     const EnumerationParams &Params,
                                     EnumerationStats *Stats) {
  std::vector<Frontier> Out;
  Out.reserve(Tasks.size());
  for (const TaskPtr &T : Tasks)
    Out.emplace_back(T);

  // Group tasks by request type so each distinct type is enumerated once.
  // The map's sorted iteration fixes the group order once; everything
  // below is indexed, never appended, by worker threads.
  std::map<std::string, std::vector<size_t>> Groups;
  for (size_t I = 0; I < Tasks.size(); ++I)
    Groups[canonicalize(Tasks[I]->request())->show()].push_back(I);
  std::vector<std::vector<size_t>> GroupIndices;
  GroupIndices.reserve(Groups.size());
  for (auto &[TypeKey, Indices] : Groups) {
    (void)TypeKey;
    GroupIndices.push_back(std::move(Indices));
  }

  std::vector<long> Efforts(Tasks.size(), -1);
  std::vector<EnumerationStats> GroupStats(GroupIndices.size());
  const bool Parallel =
      ThreadPool::resolveThreadCount(Params.NumThreads) > 1;
  // All groups share one wall-clock deadline anchored at entry (they run
  // concurrently, so a per-group anchor would overshoot the caller's
  // budget when groups outnumber workers).
  const std::chrono::steady_clock::time_point Deadline =
      deadlineFor(Params);

  // One request-type group: its own node budget, its own effort counter.
  // Workers only ever touch the frontier/effort slots of their group's
  // task indices, which are disjoint across groups.
  auto SolveGroup = [&](size_t GI) {
    obs::ScopedSpan Span("enum.group");
    const std::vector<size_t> &Indices = GroupIndices[GI];
    const TypePtr &Request = Tasks[Indices.front()]->request();
    long Nodes = Params.NodeBudget;
    long Seen = 0;
    double Lower = 0;
    double Upper = Params.InitialBudget;
    int Windows = 0;
    int WindowsSinceAllSolved = -1;
    bool Interrupted = false;
    const std::function<bool()> ShouldStop =
        makeShouldStop(Params, Deadline, Interrupted);

    // Folds one candidate (with its per-task likelihood row) into the
    // group's frontiers, in enumeration order.
    auto Fold = [&](ExprPtr P, double LogPrior, const double *Row) {
      ++Seen;
      for (size_t K = 0; K < Indices.size(); ++K) {
        size_t I = Indices[K];
        if (Row[K] == NegInf)
          continue;
        if (Out[I].empty() && Efforts[I] < 0)
          Efforts[I] = Seen;
        Out[I].record({P, LogPrior, Row[K]}, Params.FrontierSize);
      }
    };

    std::vector<double> Row(Indices.size());
    while (Lower < Params.MaxBudget && Nodes > 0 && !Interrupted) {
      ++Windows;
      if (!Parallel) {
        enumerateWindow(G, Request, Lower, Upper, Nodes,
                        [&](ExprPtr P, double LogPrior) {
                          for (size_t K = 0; K < Indices.size(); ++K)
                            Row[K] = Tasks[Indices[K]]->logLikelihood(P);
                          Fold(P, LogPrior, Row.data());
                          return true;
                        },
                        ShouldStop);
      } else {
        // Shared-grammar analog of solveTask's parallel testing: buffer
        // candidates, fan the (candidate x task) evaluator calls across
        // workers, fold in enumeration order.
        const size_t NT = Indices.size();
        std::vector<std::pair<ExprPtr, double>> Batch;
        std::vector<double> LL;
        auto Flush = [&] {
          if (Batch.empty())
            return;
          LL.resize(Batch.size() * NT);
          parallelFor(Params.NumThreads, Batch.size() * NT, [&](size_t J) {
            LL[J] = Tasks[Indices[J % NT]]->logLikelihood(
                Batch[J / NT].first);
          });
          for (size_t B = 0; B < Batch.size(); ++B)
            Fold(Batch[B].first, Batch[B].second, &LL[B * NT]);
          Batch.clear();
        };
        enumerateWindow(G, Request, Lower, Upper, Nodes,
                        [&](ExprPtr P, double LogPrior) {
                          Batch.emplace_back(P, LogPrior);
                          if (Batch.size() >= TestBatchSize)
                            Flush();
                          return true;
                        },
                        ShouldStop);
        Flush();
      }
      bool AllSolved = true;
      for (size_t I : Indices)
        AllSolved = AllSolved && !Out[I].empty();
      if (AllSolved) {
        if (WindowsSinceAllSolved < 0)
          WindowsSinceAllSolved = 0;
        else
          ++WindowsSinceAllSolved;
        if (WindowsSinceAllSolved >= Params.ExtraWindowsAfterSolution)
          break;
      }
      Lower = Upper;
      Upper += Params.BudgetStep;
    }

    GroupStats[GI].NodesExpanded = Params.NodeBudget - Nodes;
    GroupStats[GI].ProgramsEnumerated = Seen;
    GroupStats[GI].BudgetReached = Upper;
    GroupStats[GI].Interrupted = Interrupted;
    recordSearchMetrics(Params.NodeBudget - Nodes, Seen,
                        Seen * static_cast<long>(Indices.size()), Windows,
                        Upper);
  };

  // Distinct request types search independently in parallel; the group
  // bodies nest further candidate-testing parallelism inside.
  parallelFor(Params.NumThreads, GroupIndices.size(), SolveGroup);

  if (Stats) {
    // Merge in fixed group order, then append efforts in task order —
    // worker completion order never leaks into the aggregate (the
    // EffortToSolve/Tasks alignment regression in EnumerationTest).
    for (const EnumerationStats &GS : GroupStats) {
      Stats->NodesExpanded += GS.NodesExpanded;
      Stats->ProgramsEnumerated += GS.ProgramsEnumerated;
      Stats->BudgetReached = std::max(Stats->BudgetReached, GS.BudgetReached);
      Stats->Interrupted = Stats->Interrupted || GS.Interrupted;
    }
    for (long E : Efforts)
      Stats->EffortToSolve.push_back(E);
  }
  if (obs::Telemetry::enabled()) {
    obs::countAdd("enum.tasks_searched", static_cast<long>(Tasks.size()));
    for (long E : Efforts)
      if (E >= 0) {
        obs::countAdd("enum.tasks_solved");
        obs::observe("enum.effort_to_solve", static_cast<double>(E));
      }
  }
  return Out;
}
