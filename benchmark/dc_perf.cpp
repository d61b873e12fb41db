//===- benchmark/dc_perf.cpp - Harness for the repo benchmark -------------===//
//
// One binary, four subcommands, all driven by benchmark/run.py:
//
//   dc_perf wakesleep ...  build the list domain and time one runWakeSleep
//                          call (a run of the wakesleep-list workload);
//                          with --trace 1 also one telemetry-on run and
//                          the per-layer timings
//   dc_perf artifacts ...  learn the list checkpoint + recognition model
//                          that dc_serve serves in the serve-solve workload
//   dc_perf load ...       closed-loop TCP load generator against dc_serve
//   dc_perf replay ...     in-process Service::solve replay of the distinct
//                          solve requests (the serve-solve correctness oracle),
//                          with --trace 1 also the per-layer timings
//
// Every subcommand writes one JSON document to --out. Nothing here adds
// instrumentation to the library: per-layer numbers come from timing the
// harness's own calls into each module's public functions (each wrapped
// in a "bench.*" span) and from the counters, gauges and spans the
// library already records.
//
//===----------------------------------------------------------------------===//

#include "core/Enumeration.h"
#include "core/ProgramParser.h"
#include "core/Recognition.h"
#include "core/Serialization.h"
#include "core/WakeSleep.h"
#include "domains/ListDomain.h"
#include "nn/Tensor.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "vs/Compression.h"
#include "vs/VersionSpaceCache.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <set>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <vector>

using namespace dc;
using dc::serve::Json;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "dc_perf: %s\n", Msg.c_str());
  std::exit(1);
}

/// --key value pairs after the subcommand. Every key a subcommand reads is
/// required: run.py is the only caller, and settings it never varies are
/// constants here, not options with defaults that could drift from it.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 >= Argc)
        die(std::string("bad argument '") + Argv[I] + "'");
      Values[Argv[I] + 2] = Argv[I + 1];
      ++I;
    }
  }
  std::string need(const std::string &Key) const {
    auto It = Values.find(Key);
    if (It == Values.end())
      die("missing --" + Key);
    return It->second;
  }
  long num(const std::string &Key) const {
    return std::atol(need(Key).c_str());
  }
  double real(const std::string &Key) const {
    return std::atof(need(Key).c_str());
  }

private:
  std::map<std::string, std::string> Values;
};

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out || !(Out << Text << "\n"))
    die("cannot write " + Path);
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

/// Peak resident and virtual size of this process, in MB.
std::pair<double, double> peakMemoryMb() {
  std::ifstream In("/proc/self/status");
  double Rss = 0, Vm = 0;
  for (std::string L; std::getline(In, L);) {
    if (L.rfind("VmHWM:", 0) == 0)
      Rss = std::atof(L.c_str() + 6) / 1024.0;
    else if (L.rfind("VmPeak:", 0) == 0)
      Vm = std::atof(L.c_str() + 7) / 1024.0;
  }
  return {Rss, Vm};
}

Json numbers(const std::vector<double> &Xs) {
  Json A = Json::array();
  for (double X : Xs)
    A.push(Json::number(X));
  return A;
}

/// FNV-1a, the hash the repo's determinism gates use.
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    H ^= 0xff;
    H *= 1099511628211ull;
  }
  void add(double D) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%a", D);
    add(std::string(Buf));
  }
  std::string hex() const {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

/// Fingerprint of a wake-sleep result: the final library (programs and
/// weights) and every rewritten training frontier (programs and scores).
std::string fingerprint(const WakeSleepResult &R) {
  Fnv F;
  for (const Production &P : R.FinalGrammar.productions()) {
    F.add(P.Program->show());
    F.add(P.LogWeight);
  }
  F.add(R.FinalGrammar.logVariable());
  for (const Frontier &Fr : R.TrainFrontiers) {
    F.add(Fr.task()->name());
    for (const FrontierEntry &E : Fr.entries()) {
      F.add(E.Program->show());
      F.add(E.LogPrior);
      F.add(E.LogLikelihood);
    }
  }
  F.add(static_cast<double>(R.FinalTestSolved));
  return F.hex();
}

//===----------------------------------------------------------------------===//
// Per-layer timings shared by the traced wakesleep and replay runs
//===----------------------------------------------------------------------===//

/// Times one harness call into a library module and records it as a
/// "bench.<name>" trace span when telemetry is on.
template <typename Fn> double timed(const char *Name, Fn &&Body) {
  obs::ScopedSpan Span(std::string("bench.") + Name);
  Clock::time_point T0 = Clock::now();
  Body();
  return secondsSince(T0);
}

/// Repeats \p Body (which returns how many operations it did) until at
/// least \p MinSeconds have passed; returns operations per second.
template <typename Fn>
double ratePerSecond(const char *Name, double MinSeconds, Fn &&Body) {
  long Ops = 0;
  double Elapsed = timed(Name, [&] {
    Clock::time_point T0 = Clock::now();
    do
      Ops += Body();
    while (secondsSince(T0) < MinSeconds);
  });
  return Elapsed > 0 ? static_cast<double>(Ops) / Elapsed : 0;
}

/// type.*: unify each production's (instantiated) return type with each
/// distinct task request's return type, in a fresh context per pair —
/// the check the enumerator makes at every hole.
void typeLayer(const Grammar &G, const std::vector<TaskPtr> &Tasks,
               double MinSeconds, Json &Out) {
  std::vector<TypePtr> Requests;
  std::set<std::string> Seen;
  for (const TaskPtr &T : Tasks)
    if (Seen.insert(T->request()->show()).second)
      Requests.push_back(T->request());
  double Unify = ratePerSecond("type.unify", MinSeconds, [&] {
    long N = 0;
    for (const TypePtr &R : Requests)
      for (const Production &P : G.productions()) {
        TypeContext Ctx;
        TypePtr Want = functionReturn(Ctx.instantiate(R));
        TypePtr Have = functionReturn(Ctx.instantiate(P.Ty));
        Ctx.unify(Want, Have);
        ++N;
      }
    return N;
  });
  double Inst = ratePerSecond("type.instantiate", MinSeconds, [&] {
    long N = 0;
    for (const Production &P : G.productions()) {
      TypeContext Ctx;
      Ctx.instantiate(P.Ty);
      ++N;
    }
    return N;
  });
  Out.set("type.unify_per_s", Json::number(Unify));
  Out.set("type.instantiate_per_s", Json::number(Inst));
}

ExprPtr rebuild(ExprPtr E, long &Interned) {
  if (E->isIndex()) {
    ++Interned;
    return Expr::index(E->index());
  }
  if (E->isLeafLike())
    return E;
  ++Interned;
  if (E->isAbstraction())
    return Expr::abstraction(rebuild(E->body(), Interned));
  ExprPtr Fn = rebuild(E->fn(), Interned);
  return Expr::application(Fn, rebuild(E->arg(), Interned));
}

/// program.*: re-intern every distinct subterm of \p Programs bottom-up
/// (hash-consing must hand back the same node) and re-parse every
/// closed one from its printed form.
void programLayer(const std::vector<ExprPtr> &Programs, double MinSeconds,
                  Json &Out) {
  std::vector<ExprPtr> Subterms;
  std::unordered_set<const Expr *> Seen;
  for (ExprPtr P : Programs)
    for (ExprPtr S : P->subexpressions())
      if (Seen.insert(S).second)
        Subterms.push_back(S);
  std::vector<std::pair<std::string, ExprPtr>> Closed;
  for (ExprPtr S : Subterms)
    if (S->isClosed())
      Closed.emplace_back(S->show(), S);
  for (ExprPtr S : Subterms) {
    long N = 0;
    if (rebuild(S, N) != S)
      die("program layer: re-interning changed " + S->show());
  }
  for (const auto &[Text, S] : Closed)
    if (parseProgram(Text) != S)
      die("program layer: re-parsing changed " + Text);
  double Intern = ratePerSecond("program.intern", MinSeconds, [&] {
    long N = 0;
    for (ExprPtr S : Subterms)
      rebuild(S, N);
    return N;
  });
  double Parse = ratePerSecond("program.parse", MinSeconds, [&] {
    for (const auto &Entry : Closed)
      parseProgram(Entry.first);
    return static_cast<long>(Closed.size());
  });
  Out.set("program.subterms", Json::integer(static_cast<long long>(
                                  Subterms.size())));
  Out.set("program.intern_per_s", Json::number(Intern));
  Out.set("program.parse_per_s", Json::number(Parse));
}

/// eval.*: enumerate up to \p PerTask candidates for each task under
/// \p G and score every candidate against its task (Task::logLikelihood
/// drives the evaluator).
void evalLayer(const Grammar &G, const std::vector<TaskPtr> &Tasks,
               int PerTask, double MinSeconds, Json &Out) {
  std::vector<std::pair<TaskPtr, ExprPtr>> Work;
  for (const TaskPtr &T : Tasks) {
    long Nodes = 200000;
    int Got = 0;
    for (double Lo = 0; Got < PerTask && Lo < 30; Lo += 1.5)
      enumerateWindow(G, T->request(), Lo, Lo + 1.5, Nodes,
                      [&](ExprPtr P, double) {
                        Work.emplace_back(T, P);
                        return ++Got < PerTask;
                      });
  }
  long Fails = 0;
  for (const auto &[T, P] : Work)
    Fails += std::isinf(T->logLikelihood(P)) ? 1 : 0;
  double Rate = ratePerSecond("eval.loglikelihood", MinSeconds, [&] {
    for (const auto &[T, P] : Work)
      T->logLikelihood(P);
    return static_cast<long>(Work.size());
  });
  Out.set("eval.candidates", Json::integer(static_cast<long long>(
                                 Work.size())));
  Out.set("eval.per_s", Json::number(Rate));
  Out.set("eval.fail_ratio",
          Json::number(Work.empty() ? 0.0
                                    : static_cast<double>(Fails) /
                                          static_cast<double>(Work.size())));
}

/// recognition.predict_* and nn.gemm_gflops at the model's own shapes.
/// GFLOP/s are computed from the shapes (2·B·in·out per layer), not
/// counted by hardware.
void recognitionLayer(const RecognitionModel &Model,
                      const std::vector<TaskPtr> &Tasks, double MinSeconds,
                      Json &Out) {
  double Predict = ratePerSecond("recognition.predict", MinSeconds, [&] {
    for (const TaskPtr &T : Tasks)
      Model.predict(*T);
    return static_cast<long>(Tasks.size());
  });
  const size_t Batch = 8;
  double PredictBatch =
      ratePerSecond("recognition.predict_batch", MinSeconds, [&] {
        long N = 0;
        for (size_t Off = 0; Off + Batch <= Tasks.size(); Off += Batch) {
          std::vector<const Task *> Group;
          for (size_t K = Off; K < Off + Batch; ++K)
            Group.push_back(Tasks[K].get());
          N += static_cast<long>(Model.predictBatch(Group).size());
        }
        return N;
      });
  Out.set("recognition.predict_per_s", Json::number(Predict));
  Out.set("recognition.predict_batch_per_s", Json::number(PredictBatch));

  const nn::Mlp &Net = Model.net();
  std::vector<nn::Matrix> Ws, Xs, Ys;
  double FlopsPerPass = 0;
  for (const nn::Linear *L : {&Net.L1, &Net.L2, &Net.L3}) {
    Ws.emplace_back(L->outDim(), L->inDim());
    Xs.emplace_back(static_cast<int>(Batch), L->inDim());
    Ys.emplace_back();
    FlopsPerPass += 2.0 * Batch * L->inDim() * L->outDim();
  }
  for (size_t I = 0; I < Ws.size(); ++I) {
    float V = 0.001f;
    for (nn::Matrix *M : {&Ws[I], &Xs[I]})
      for (int K = 0; K < M->rows() * M->cols(); ++K)
        M->data()[K] = (V += 0.0007f) - 0.5f * static_cast<float>(K & 1);
  }
  double Passes = ratePerSecond("nn.matmulInto", MinSeconds, [&] {
    for (size_t I = 0; I < Ws.size(); ++I)
      Ws[I].matmulInto(Xs[I], Ys[I]);
    return 1L;
  });
  Out.set("nn.gemm_gflops", Json::number(Passes * FlopsPerPass / 1e9));
}

//===----------------------------------------------------------------------===//
// wakesleep
//===----------------------------------------------------------------------===//

/// The one learning problem of the benchmark, shared by the wakesleep-list
/// workload and the served artifacts: the list domain at corpus seed 1,
/// wake-sleep seed 1 (the ROADMAP run's seed), full variant, version-space
/// compression, two cycles at a 20000-node wake budget. Other seeds change
/// the run's cost by up to 10x, so the problem is fixed; only the thread
/// count (from the host's nproc) comes from the command line.
struct WakeSleepSetup {
  static constexpr unsigned DomainSeed = 1;
  static constexpr long NodeBudget = 20000;
  WakeSleepConfig Config;

  explicit WakeSleepSetup(const Args &A) {
    Config.Variant = SystemVariant::Full;
    Config.Iterations = 2;
    Config.EvaluateTestEachCycle = false; // as dc_run runs it
    Config.Seed = 1;
    Config.NumThreads = static_cast<int>(A.num("threads"));
    Config.Compress.Backend = CompressionBackend::VersionSpace;
  }

  DomainSpec makeDomain() const {
    DomainSpec D = makeListDomain(DomainSeed);
    D.Search.NodeBudget = NodeBudget;
    return D;
  }
};

/// Wake-sleep layers: enumeration and compression on the cycle-0
/// frontiers, recognition training on the final ones, then the shared
/// type/program/eval/nn timings on the learned library.
void wakeSleepLayers(const WakeSleepSetup &S, const DomainSpec &D,
                     const WakeSleepResult &R, Json &Out) {
  const double MinSeconds = 0.2;
  Grammar Base = Grammar::uniform(D.BasePrimitives);
  EnumerationParams Search = D.Search;
  Search.NumThreads = S.Config.NumThreads;
  EnumerationStats Stats;
  std::vector<Frontier> Cycle0;
  double EnumS = timed("enum.solveTasks",
                       [&] { Cycle0 = solveTasks(Base, D.TrainTasks, Search,
                                                 &Stats); });
  long Solved = 0;
  std::vector<Frontier> Hits;
  for (const Frontier &F : Cycle0)
    if (!F.empty()) {
      ++Solved;
      Hits.push_back(F);
    }
  Out.set("enum.busy_s", Json::number(EnumS));
  Out.set("enum.nodes", Json::integer(Stats.NodesExpanded));
  Out.set("enum.programs", Json::integer(Stats.ProgramsEnumerated));
  Out.set("enum.nodes_per_s",
          Json::number(static_cast<double>(Stats.NodesExpanded) / EnumS));
  Out.set("enum.solved_ratio",
          Json::number(static_cast<double>(Solved) /
                       static_cast<double>(D.TrainTasks.size())));

  CompressionParams CP = S.Config.Compress;
  CP.NumThreads = S.Config.NumThreads;
  VersionSpaceCache::global().clear();
  VersionSpaceCache::global().resetStats();
  CompressionResult VsResult;
  double VsS = timed("vs.compressLibrary",
                     [&] { VsResult = compressLibrary(Base, Hits, CP); });
  VersionSpaceCache::Stats CS = VersionSpaceCache::global().stats();
  CP.Backend = CompressionBackend::TopDown;
  double TdS = timed("vs.compressLibrary.topdown",
                     [&] { compressLibrary(Base, Hits, CP); });
  Out.set("vs.compress_s", Json::number(VsS));
  Out.set("vs.topdown_compress_s", Json::number(TdS));
  Out.set("vs.inventions", Json::integer(static_cast<long long>(
                               VsResult.NewInventions.size())));
  Out.set("vs.score_gain",
          Json::number(VsResult.FinalScore - VsResult.InitialScore));
  long Lookups = CS.Hits + CS.Misses;
  Out.set("vs.cache_hit_ratio",
          Json::number(Lookups ? static_cast<double>(CS.Hits) /
                                     static_cast<double>(Lookups)
                               : 0.0));

  RecognitionParams RP = S.Config.Recog;
  RP.Seed = S.Config.Seed;
  RP.NumThreads = S.Config.NumThreads;
  RecognitionModel Model(R.FinalGrammar, *D.Featurizer, RP);
  double TrainS = timed("recognition.train", [&] {
    Model.train(R.TrainFrontiers, D.TrainTasks, D.Hook);
  });
  Out.set("recognition.train_s", Json::number(TrainS));
  Out.set("recognition.examples_per_s",
          Json::number(static_cast<double>(RP.TrainingSteps) / TrainS));

  std::vector<TaskPtr> All = D.TrainTasks;
  All.insert(All.end(), D.TestTasks.begin(), D.TestTasks.end());
  recognitionLayer(Model, All, MinSeconds, Out);
  typeLayer(R.FinalGrammar, All, MinSeconds, Out);
  std::vector<ExprPtr> Programs;
  for (const Frontier &F : R.TrainFrontiers)
    for (const FrontierEntry &E : F.entries())
      Programs.push_back(E.Program);
  programLayer(Programs, MinSeconds, Out);
  evalLayer(R.FinalGrammar, All, 200, MinSeconds, Out);
}

int cmdWakeSleep(const Args &A) {
  const WakeSleepSetup S(A);
  // Domain builds timed before the run: the set-up time is ~1 ms, and its
  // median needs many samples.
  const int SetupReps = 50;
  const bool Trace = A.num("trace") != 0;

  Json Out = Json::object();
  std::vector<double> SetupS;
  std::optional<DomainSpec> D;
  for (int I = 0; I < SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    D.emplace(S.makeDomain());
    SetupS.push_back(secondsSince(T0));
  }
  Out.set("setup_s", numbers(SetupS));
  Out.set("train_tasks", Json::integer(static_cast<long long>(
                             D->TrainTasks.size())));
  Out.set("test_tasks", Json::integer(static_cast<long long>(
                            D->TestTasks.size())));
  Out.set("iterations", Json::integer(S.Config.Iterations));

  // One untraced run with telemetry off, as in any production run. run.py
  // starts a fresh process per run, so each starts as cold as dc_run and
  // its memory peaks are its own.
  Clock::time_point T0 = Clock::now();
  WakeSleepResult Untraced = runWakeSleep(*D, S.Config);
  Out.set("run_s", Json::number(secondsSince(T0)));
  Out.set("fingerprint", Json::string(fingerprint(Untraced)));
  Out.set("cycles",
          Json::integer(static_cast<long long>(Untraced.Cycles.size())));
  Out.set("train_solved", Json::integer(Untraced.trainSolved()));
  Out.set("test_solved", Json::integer(Untraced.FinalTestSolved));
  auto [Rss, Vm] = peakMemoryMb();
  Out.set("peak_rss_mb", Json::number(Rss));
  Out.set("peak_vm_mb", Json::number(Vm));

  if (Trace) {
    obs::Telemetry::setEnabled(true);
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
    VersionSpaceCache::global().clear();
    T0 = Clock::now();
    WakeSleepResult R = runWakeSleep(*D, S.Config);
    Out.set("traced_run_s", Json::number(secondsSince(T0)));
    Out.set("traced_fingerprint", Json::string(fingerprint(R)));
    Out.set("traced_cycles",
            Json::integer(static_cast<long long>(R.Cycles.size())));
    Json Phases = Json::object();
    obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
    for (const char *Phase : {"wake", "abstraction", "dreaming", "evaluate"}) {
      double Sum = 0;
      for (int C = 0; C < S.Config.Iterations; ++C)
        Sum += Reg.gauge("wakesleep.cycle." + std::to_string(C) + "." +
                         Phase + "_seconds")
                   .value();
      Phases.set(Phase, Json::number(Sum));
    }
    Out.set("phases", std::move(Phases));
    // The run's own spans (compress.*, enumeration, ...) for self-time
    // aggregation; written before the harness adds its bench.* spans.
    writeFile(A.need("trace-out"), obs::Tracer::global().toJson());
    obs::Tracer::global().clear();
    Json Layers = Json::object();
    wakeSleepLayers(S, *D, R, Layers);
    Out.set("layers", std::move(Layers));
    writeFile(A.need("bench-trace-out"), obs::Tracer::global().toJson());
  }
  writeFile(A.need("out"), Out.dump());
  return 0;
}

//===----------------------------------------------------------------------===//
// artifacts
//===----------------------------------------------------------------------===//

int cmdArtifacts(const Args &A) {
  const WakeSleepSetup S(A);
  DomainSpec D = S.makeDomain();
  WakeSleepResult R = runWakeSleep(D, S.Config);
  const std::string Dir = A.need("dir");
  if (!saveCheckpoint(Dir + "/list.ckpt", R.FinalGrammar, R.TrainFrontiers))
    die("cannot write checkpoint");
  RecognitionParams RP = S.Config.Recog;
  RP.Seed = S.Config.Seed;
  RP.NumThreads = S.Config.NumThreads;
  RecognitionModel Model(R.FinalGrammar, *D.Featurizer, RP);
  Model.train(R.TrainFrontiers, D.TrainTasks, D.Hook);
  {
    std::ofstream Out(Dir + "/list.model");
    saveRecognitionModel(Model, Out);
    if (!Out)
      die("cannot write model");
  }
  Json Info = Json::object();
  Json Train = Json::array(), Test = Json::array();
  for (const TaskPtr &T : D.TrainTasks)
    Train.push(Json::string(T->name()));
  for (const TaskPtr &T : D.TestTasks)
    Test.push(Json::string(T->name()));
  Info.set("train_tasks", std::move(Train));
  Info.set("test_tasks", std::move(Test));
  Info.set("inventions", Json::integer(R.FinalGrammar.inventionCount()));
  Info.set("fingerprint", Json::string(fingerprint(R)));
  writeFile(Dir + "/info.json", Info.dump());
  return 0;
}

//===----------------------------------------------------------------------===//
// load
//===----------------------------------------------------------------------===//

int connectTo(int Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    ::close(Fd);
    return -1;
  }
  timeval Tv{120, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof Tv);
  return Fd;
}

/// Line-oriented exchange on one socket.
struct LineConn {
  int Fd = -1;
  std::string Buf;

  bool sendLine(const std::string &Line) {
    std::string Msg = Line + "\n";
    size_t Off = 0;
    while (Off < Msg.size()) {
      ssize_t N = ::send(Fd, Msg.data() + Off, Msg.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }
  bool readLine(std::string &Out) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Out = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      char Tmp[65536];
      ssize_t N = ::recv(Fd, Tmp, sizeof Tmp, 0);
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buf.clear();
  }
};

struct Sample {
  size_t Request;     ///< index into the request file
  double StartS;      ///< since the load began
  double LatencyMs;   ///< send -> answer (churn: connect -> close)
  /// Where the exchange failed: "" (it did not), "connect", or "io" (a
  /// send or receive failed: dropped connection or receive timeout).
  const char *FailedAt;
  std::string Answer; ///< raw response line
};

/// Closed loop: each of --conns clients sends its next request only after
/// the previous answer arrived. persistent mode keeps one connection per
/// client; churn mode connects, sends one request, reads its answer and
/// closes, per request. In churn mode client 0 also sends a reload of the
/// current checkpoint every ChurnReloadMs. Requests are taken in file order
/// from a shared cursor, wrapping around.
int cmdLoad(const Args &A) {
  // Samples before the warm-up ends are not recorded.
  const double Warmup = 1.0;
  // churn: today every connection leaves a thread stack mapped in
  // dc_serve, which aborts near 32k connections.
  const long ChurnMaxConnections = 20000;
  const double ChurnReloadMs = 500;
  const std::string ReloadLine =
      R"({"id":"reload","method":"reload","params":{}})";
  const int Port = static_cast<int>(A.num("port"));
  const int Conns = static_cast<int>(A.num("conns"));
  const double Seconds = A.real("seconds");
  const long MinSamples = A.num("min-samples");
  const double MaxSeconds = 3 * Seconds;
  const std::string Mode = A.need("mode");
  if (Mode != "persistent" && Mode != "churn")
    die("--mode must be persistent or churn");
  const bool Churn = Mode == "churn";
  const long MaxConnections = Churn ? ChurnMaxConnections : 1L << 40;
  const std::vector<std::string> Requests = readLines(A.need("requests"));
  if (Requests.empty())
    die("no requests");

  std::atomic<size_t> Cursor{0};
  std::atomic<long> Connections{0};
  std::atomic<long> ConnectFailures{0};
  std::atomic<bool> Stop{false};
  std::atomic<long> Measured{0};
  std::vector<std::vector<Sample>> PerClient(Conns);
  std::vector<Sample> Reloads;
  rusage Before{};
  ::getrusage(RUSAGE_SELF, &Before);
  Clock::time_point Begin = Clock::now();
  // Runs --seconds past the warm-up, longer if needed to collect
  // --min-samples, but never past three times --seconds.
  auto Done = [&](double Now) {
    if (Now >= Warmup + MaxSeconds)
      return true;
    return Now >= Warmup + Seconds && Measured.load() >= MinSamples;
  };

  auto Client = [&](int Id) {
    LineConn C;
    double NextReload = Warmup + ChurnReloadMs / 1000.0;
    for (;;) {
      double Now = secondsSince(Begin);
      if (Done(Now) || Stop.load())
        break;
      bool IsReload = Churn && Id == 0 && Now >= NextReload;
      size_t Idx = IsReload ? static_cast<size_t>(-1)
                            : Cursor.fetch_add(1) % Requests.size();
      const std::string &Line = IsReload ? ReloadLine : Requests[Idx];
      if (IsReload)
        NextReload += ChurnReloadMs / 1000.0;
      Sample S{Idx, Now, 0, "", {}};
      Clock::time_point T0 = Clock::now();
      if (C.Fd < 0) {
        if (Connections.fetch_add(1) >= MaxConnections) {
          Stop.store(true);
          break;
        }
        C.Fd = connectTo(Port);
        if (C.Fd < 0)
          ConnectFailures.fetch_add(1);
      }
      if (C.Fd < 0)
        S.FailedAt = "connect";
      else if (!C.sendLine(Line) || !C.readLine(S.Answer))
        S.FailedAt = "io";
      if (Churn || *S.FailedAt)
        C.close();
      S.LatencyMs =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      if (S.StartS < Warmup)
        continue;
      if (IsReload) {
        Reloads.push_back(std::move(S));
      } else {
        Measured.fetch_add(1);
        PerClient[Id].push_back(std::move(S));
      }
    }
    C.close();
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I < Conns; ++I)
    Threads.emplace_back(Client, I);
  for (std::thread &T : Threads)
    T.join();
  double Wall = secondsSince(Begin) - Warmup;
  rusage After{};
  ::getrusage(RUSAGE_SELF, &After);
  auto Cpu = [](const rusage &R) {
    return static_cast<double>(R.ru_utime.tv_sec + R.ru_stime.tv_sec) +
           static_cast<double>(R.ru_utime.tv_usec + R.ru_stime.tv_usec) /
               1e6;
  };

  Json Samples = Json::array();
  auto Emit = [&](const Sample &S, const char *Kind) {
    Json J = Json::object();
    J.set("kind", Json::string(Kind));
    J.set("request", Json::integer(S.Request == static_cast<size_t>(-1)
                                       ? -1
                                       : static_cast<long long>(S.Request)));
    J.set("done_s", Json::number(S.StartS - Warmup + S.LatencyMs / 1000));
    J.set("latency_ms", Json::number(S.LatencyMs));
    J.set("failed_at", Json::string(S.FailedAt));
    J.set("answer", Json::string(S.Answer));
    Samples.push(std::move(J));
  };
  for (const std::vector<Sample> &Client : PerClient)
    for (const Sample &S : Client)
      Emit(S, "request");
  for (const Sample &S : Reloads)
    Emit(S, "reload");
  Json Out = Json::object();
  Out.set("wall_s", Json::number(Wall));
  // Connections attempted over the whole load, warm-up included (the
  // counter also counts each client's one refused attempt past the cap).
  Out.set("connections",
          Json::integer(std::min(Connections.load(), MaxConnections)));
  Out.set("connect_failures", Json::integer(ConnectFailures.load()));
  Out.set("capped", Json::boolean(Stop.load()));
  // CPU seconds spent by the load generator (warm-up included) per
  // client-thread second: near 1 means the client, not the server, is
  // the bottleneck.
  Out.set("client_cpu_share",
          Json::number((Cpu(After) - Cpu(Before)) /
                       ((Wall + Warmup) * static_cast<double>(Conns))));
  Out.set("samples", std::move(Samples));
  writeFile(A.need("out"), Out.dump());
  return 0;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

/// The expected answer to one distinct solve request, from an in-process
/// Service::solve on the same checkpoint and model the server loaded.
int cmdReplay(const Args &A) {
  serve::ServiceConfig Config;
  Config.DomainName = "list";
  Config.CheckpointPath = A.need("checkpoint");
  Config.ModelPath = A.need("model");
  const bool Trace = A.num("trace") != 0;
  // The traced replay records the harness's bench.* spans (and the
  // library's own) for --trace-out.
  obs::Telemetry::setEnabled(Trace);
  std::string Err;
  std::vector<double> CreateS;
  std::unique_ptr<serve::Service> Svc;
  for (int I = 0; I < (Trace ? 3 : 1); ++I) {
    Clock::time_point T0 = Clock::now();
    Svc = serve::Service::create(Config, &Err);
    CreateS.push_back(secondsSince(T0));
    if (!Svc)
      die("Service::create: " + Err);
  }
  const std::vector<std::string> Lines = readLines(A.need("requests"));

  // Distinct (task, budget) solve requests, in first-appearance order.
  struct Key {
    std::string Task;
    long Budget;
    bool operator<(const Key &O) const {
      return std::tie(Task, Budget) < std::tie(O.Task, O.Budget);
    }
  };
  std::map<Key, size_t> Index;
  std::vector<Key> Distinct;
  for (const std::string &L : Lines) {
    std::optional<serve::Request> R = serve::parseRequestLine(L, &Err);
    if (!R)
      die("bad request line: " + Err);
    if (R->Method != "solve")
      continue;
    std::optional<serve::SolveParams> P =
        serve::parseSolveParams(R->Params, &Err);
    if (!P)
      die("bad solve params: " + Err);
    Key K{P->TaskName, P->NodeBudget};
    if (Index.emplace(K, Distinct.size()).second)
      Distinct.push_back(K);
  }

  Json Answers = Json::array();
  double SearchS = 0;
  long Nodes = 0, Programs = 0, Solved = 0;
  std::vector<ExprPtr> BeamPrograms;
  std::vector<TaskPtr> Tasks;
  for (const Key &K : Distinct) {
    TaskPtr T = Svc->taskByName(K.Task);
    if (!T)
      die("unknown task " + K.Task);
    if (std::find(Tasks.begin(), Tasks.end(), T) == Tasks.end())
      Tasks.push_back(T);
    ContextualGrammar Guide;
    timed("recognition.predict",
          [&] { Guide = Svc->recognitionModel()->predict(*T); });
    serve::Outcome O;
    SearchS += timed("enum.solveTask", [&] {
      O = Svc->solve(T, 1e9, K.Budget, 0, &Guide);
    });
    Nodes += O.NodesExpanded;
    Programs += O.ProgramsEnumerated;
    Solved += O.TheStatus == serve::Outcome::Status::Solved ? 1 : 0;
    Json Answer = Json::object();
    Answer.set("task", Json::string(K.Task));
    Answer.set("node_budget", Json::integer(K.Budget));
    Answer.set("status",
               Json::string(O.TheStatus == serve::Outcome::Status::Solved
                                ? "solved"
                                : "no_solution"));
    Answer.set("nodes_expanded", Json::integer(O.NodesExpanded));
    Json Progs = Json::array();
    for (const FrontierEntry &E : O.Beam.entries()) {
      Progs.push(Json::string(E.Program->show()));
      BeamPrograms.push_back(E.Program);
    }
    Answer.set("programs", std::move(Progs));
    Answers.push(std::move(Answer));
  }
  Json Out = Json::object();
  Out.set("answers", std::move(Answers));

  if (Trace) {
    const double MinSeconds = 0.2;
    Json Layers = Json::object();
    std::sort(CreateS.begin(), CreateS.end());
    Layers.set("serve.service_create_s", Json::number(CreateS[1]));
    Layers.set("enum.busy_s", Json::number(SearchS));
    Layers.set("enum.nodes", Json::integer(Nodes));
    Layers.set("enum.programs", Json::integer(Programs));
    Layers.set("enum.nodes_per_s",
               Json::number(static_cast<double>(Nodes) / SearchS));
    Layers.set("enum.solved_ratio",
               Json::number(static_cast<double>(Solved) /
                            static_cast<double>(Distinct.size())));
    double Parse = ratePerSecond("serve.parseRequest", MinSeconds, [&] {
      for (const std::string &L : Lines) {
        std::optional<serve::Request> R = serve::parseRequestLine(L);
        if (R && R->Method == "solve")
          serve::parseSolveParams(R->Params);
      }
      return static_cast<long>(Lines.size());
    });
    Layers.set("serve.json_parse_per_s", Json::number(Parse));
    std::vector<TaskPtr> All = Svc->domain().TrainTasks;
    All.insert(All.end(), Svc->domain().TestTasks.begin(),
               Svc->domain().TestTasks.end());
    recognitionLayer(*Svc->recognitionModel(), All, MinSeconds, Layers);
    typeLayer(Svc->grammar(), All, MinSeconds, Layers);
    programLayer(BeamPrograms, MinSeconds, Layers);
    evalLayer(Svc->grammar(), Tasks, 200, MinSeconds, Layers);
    Out.set("layers", std::move(Layers));
    writeFile(A.need("trace-out"), obs::Tracer::global().toJson());
  }
  writeFile(A.need("out"), Out.dump());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: %s wakesleep|artifacts|load|replay --key value...\n",
                 Argv[0]);
    return 2;
  }
  Args A(Argc, Argv);
  std::string Cmd = Argv[1];
  if (Cmd == "wakesleep")
    return cmdWakeSleep(A);
  if (Cmd == "artifacts")
    return cmdArtifacts(A);
  if (Cmd == "load")
    return cmdLoad(A);
  if (Cmd == "replay")
    return cmdReplay(A);
  std::fprintf(stderr, "dc_perf: unknown subcommand '%s'\n", Cmd.c_str());
  return 2;
}
