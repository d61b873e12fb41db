//===- bench/bench_enumerate.cpp - Typed enumeration throughput -----------===//
//
// Nodes per second of the wake-phase enumerator on the list domain, under
// the uniform base grammar and under a recognition-guided bigram grammar,
// at a fixed node budget per task. Nothing is evaluated: the rows measure
// candidate generation, unification and program construction alone — the
// part of every wake phase and every dc_serve solve that the typing layer
// decides.
//
// A determinism fingerprint over every emitted (program, prior bits) pair
// and every task's node count pins the search order. tools/check_bench.py
// compares it with the committed baseline on any runner; the throughput
// rows carry unit "1/s", which it does not time-gate. Exits nonzero when
// repeated runs disagree.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Enumeration.h"
#include "core/Recognition.h"
#include "domains/ListDomain.h"

#include <cstdint>
#include <cstring>
#include <memory>

using namespace dc;
using namespace dcbench;

namespace {

constexpr long NodesPerTask = 60000;
constexpr int NumTasks = 8;
constexpr int Repetitions = 3;

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(std::uint64_t H, const void *Data, size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

struct SearchResult {
  long Nodes = 0;
  long Programs = 0;
  std::uint64_t Fingerprint = 1469598103934665603ull;
  double Seconds = 0;
};

/// Enumerates each task's request in successive description-length
/// windows, as solveTask does, until its node budget runs out or the
/// domain's depth bound is reached.
SearchResult
enumerateTasks(const std::vector<TaskPtr> &Tasks,
               const std::vector<const EnumerationSource *> &Sources,
               const EnumerationParams &Search) {
  SearchResult R;
  WallTimer Timer;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    long Nodes = NodesPerTask;
    for (double Lower = 0, Upper = Search.InitialBudget;
         Lower < Search.MaxBudget && Nodes > 0;
         Lower = Upper, Upper += Search.BudgetStep)
      enumerateWindow(*Sources[I], Tasks[I]->request(), Lower, Upper, Nodes,
                      [&](ExprPtr P, double LogPrior) {
                        std::string Text = P->show();
                        R.Fingerprint =
                            fnv1a(R.Fingerprint, Text.data(), Text.size());
                        std::uint64_t Bits;
                        std::memcpy(&Bits, &LogPrior, sizeof Bits);
                        R.Fingerprint =
                            fnv1a(R.Fingerprint, &Bits, sizeof Bits);
                        ++R.Programs;
                        return true;
                      });
    long Spent = NodesPerTask - Nodes;
    R.Fingerprint = fnv1a(R.Fingerprint, &Spent, sizeof Spent);
    R.Nodes += Spent;
  }
  R.Seconds = Timer.seconds();
  return R;
}

/// Best-of-N timing; every repetition must reproduce the first's stream.
bool measure(const std::string &Label, const std::vector<TaskPtr> &Tasks,
             const std::vector<const EnumerationSource *> &Sources,
             const EnumerationParams &Search, std::uint64_t &Fingerprint) {
  SearchResult Best = enumerateTasks(Tasks, Sources, Search);
  bool Stable = true;
  for (int Rep = 1; Rep < Repetitions; ++Rep) {
    SearchResult R = enumerateTasks(Tasks, Sources, Search);
    Stable = Stable && R.Fingerprint == Best.Fingerprint &&
             R.Nodes == Best.Nodes;
    if (R.Seconds < Best.Seconds)
      Best.Seconds = R.Seconds;
  }
  row(Label + " nodes", static_cast<double>(Best.Nodes));
  row(Label + " programs", static_cast<double>(Best.Programs));
  row(Label + " nodes/s", static_cast<double>(Best.Nodes) / Best.Seconds,
      "1/s");
  if (!Stable)
    note("ERROR: " + Label + " search differs between repetitions");
  Fingerprint = fnv1a(Fingerprint, &Best.Fingerprint, sizeof Best.Fingerprint);
  return Stable;
}

} // namespace

int main() {
  JsonReport Report("enumerate");
  banner("Typed enumeration throughput (list domain)");

  DomainSpec D = makeListDomain(1);
  Grammar G = Grammar::uniform(D.BasePrimitives);
  std::vector<TaskPtr> Tasks(D.TrainTasks.begin(),
                             D.TrainTasks.begin() + NumTasks);
  row("tasks", NumTasks);
  row("node budget per task", static_cast<double>(NodesPerTask));

  // A briefly trained recognition model: its guides are as skewed as the
  // ones dc_serve and the wake phase search under.
  RecognitionParams RP;
  RP.HiddenDim = 32;
  RP.TrainingSteps = 400;
  RP.FantasyCount = 40;
  RP.Seed = 5;
  RP.NumThreads = 1;
  RecognitionModel Model(G, *D.Featurizer, RP);
  Model.train({}, D.TrainTasks, D.Hook);
  std::vector<ContextualGrammar> Guides;
  for (const TaskPtr &T : Tasks)
    Guides.push_back(Model.predict(*T));

  std::vector<const EnumerationSource *> Base(Tasks.size(), &G);
  std::vector<const EnumerationSource *> Guided;
  for (const ContextualGrammar &CG : Guides)
    Guided.push_back(&CG);

  std::uint64_t Fingerprint = 1469598103934665603ull;
  bool Ok = measure("base grammar", Tasks, Base, D.Search, Fingerprint);
  Ok = measure("guided grammar", Tasks, Guided, D.Search, Fingerprint) && Ok;

  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "determinism fingerprint: %016llx",
                static_cast<unsigned long long>(Fingerprint));
  note(Buf);
  return Ok ? 0 : 1;
}
