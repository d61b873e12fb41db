//===- tests/serve/ServeTest.cpp - Synthesis service unit tests -----------===//
//
// Covers the dc_serve stack bottom-up: the JSON codec, the protocol
// bridges (type strings, typed JSON<->Value), the bounded admission
// queue, the Service search semantics (deadlines, budgets, concurrent
// determinism), and an in-process end-to-end Server exercise over real
// sockets (also the TSan entry point for the serve threading model).
//
//===----------------------------------------------------------------------===//

#include "core/Serialization.h"
#include "domains/ListDomain.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/RequestQueue.h"
#include "serve/Server.h"
#include "serve/Service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <thread>

using namespace dc;
using namespace dc::serve;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(ServeJsonTest, ParseDumpRoundTrip) {
  const std::string Text =
      R"({"id":7,"method":"solve","params":{"xs":[1,-2,3.5,true,false,null],"s":"a\nb\"c"}})";
  std::string Err;
  std::optional<Json> J = Json::parse(Text, &Err);
  ASSERT_TRUE(J) << Err;
  // dump() re-parses to the same dump (canonical fixed point).
  std::optional<Json> J2 = Json::parse(J->dump());
  ASSERT_TRUE(J2);
  EXPECT_EQ(J->dump(), J2->dump());
  EXPECT_EQ(J->find("id")->asInteger(), 7);
  EXPECT_TRUE(J->find("params")->find("xs")->items()[3].asBool());
  EXPECT_EQ(J->find("params")->find("s")->asString(), "a\nb\"c");
}

TEST(ServeJsonTest, IntegersStayExact) {
  std::optional<Json> J = Json::parse("[9007199254740993,2.5,-0]");
  ASSERT_TRUE(J);
  EXPECT_TRUE(J->items()[0].isInteger());
  EXPECT_EQ(J->items()[0].asInteger(), 9007199254740993LL); // > 2^53
  EXPECT_FALSE(J->items()[1].isInteger());
  EXPECT_EQ(J->dump(), "[9007199254740993,2.5,0]");
}

TEST(ServeJsonTest, ErrorsCarryOffsets) {
  std::string Err;
  EXPECT_FALSE(Json::parse("{\"a\":}", &Err));
  EXPECT_NE(Err.find("offset"), std::string::npos);
  Err.clear();
  EXPECT_FALSE(Json::parse("[1,2] trailing", &Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos);
  Err.clear();
  EXPECT_FALSE(Json::parse("\"unterminated", &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(ServeJsonTest, DepthLimitIsEnforced) {
  std::string Deep(Json::MaxDepth + 8, '[');
  std::string Err;
  EXPECT_FALSE(Json::parse(Deep, &Err));
  EXPECT_NE(Err.find("deep"), std::string::npos);
  // One level below the cap parses fine.
  std::string Ok;
  for (int I = 0; I < Json::MaxDepth - 1; ++I)
    Ok += "[";
  Ok += "1";
  for (int I = 0; I < Json::MaxDepth - 1; ++I)
    Ok += "]";
  EXPECT_TRUE(Json::parse(Ok));
}

TEST(ServeJsonTest, UnicodeEscapesDecodeToUtf8) {
  std::optional<Json> J = Json::parse(R"("é😀")");
  ASSERT_TRUE(J);
  EXPECT_EQ(J->asString(), "\xc3\xa9\xf0\x9f\x98\x80"); // é + 😀
}

//===----------------------------------------------------------------------===//
// Protocol: type strings
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, TypeStringsRoundTripThroughShow) {
  for (const char *Src :
       {"int", "list(int)", "int -> int", "int -> list(int) -> bool",
        "(int -> int) -> list(int) -> list(int)", "list(list(char))",
        "list(t0) -> list(t0)"}) {
    std::string Err;
    TypePtr T = parseTypeString(Src, &Err);
    ASSERT_TRUE(T) << Src << ": " << Err;
    EXPECT_EQ(T->show(), Src);
  }
}

TEST(ServeProtocolTest, TypeStringErrors) {
  // A refused string interns nothing: interned types live for the rest
  // of the process.
  const size_t Before = Type::internedCount();
  for (const char *Bad : {"", "->", "int ->", "(int", "list(", "list(int",
                          "list(list(bool)) -> int ->"}) {
    std::string Err;
    EXPECT_EQ(parseTypeString(Bad, &Err), nullptr) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  // A wire type may only use names some type already uses: a new name
  // would stay registered for the life of the process.
  for (const char *Bad : {"frobnicate", "list(frobnicate) -> int",
                          "int -> x(int, bool, char)"}) {
    std::string Err;
    EXPECT_EQ(parseTypeString(Bad, &Err), nullptr) << Bad;
    EXPECT_NE(Err.find("unknown type constructor"), std::string::npos)
        << Bad << ": " << Err;
  }
  EXPECT_FALSE(Type::isKnownConstructor("frobnicate"));
  EXPECT_FALSE(Type::isKnownConstructor("x"));
  EXPECT_EQ(Type::internedCount(), Before);
}

TEST(ServeProtocolTest, TypeStringDepthAndVariableLimits) {
  std::string Err;
  std::string Deep =
      std::string(300000, '(') + "int" + std::string(300000, ')');
  EXPECT_EQ(parseTypeString(Deep, &Err), nullptr);
  EXPECT_NE(Err.find("nested deeper"), std::string::npos) << Err;

  std::string Lists;
  for (int I = 0; I < 1000; ++I)
    Lists += "list(";
  Lists += "int" + std::string(1000, ')');
  Err.clear();
  EXPECT_EQ(parseTypeString(Lists, &Err), nullptr);
  EXPECT_NE(Err.find("nested deeper"), std::string::npos) << Err;

  std::string Arrows;
  for (int I = 0; I < 1000; ++I)
    Arrows += "int -> ";
  Arrows += "int";
  Err.clear();
  EXPECT_EQ(parseTypeString(Arrows, &Err), nullptr);
  EXPECT_NE(Err.find("nested deeper"), std::string::npos) << Err;

  std::string Fine =
      std::string(100, '(') + "list(int)" + std::string(100, ')');
  Err.clear();
  TypePtr T = parseTypeString(Fine, &Err);
  ASSERT_TRUE(T) << Err;
  EXPECT_EQ(T, tList(tInt()));

  for (const char *Bad : {"t99999999999999999999", "t65536 -> int",
                          "list(t2147483648)"}) {
    Err.clear();
    EXPECT_EQ(parseTypeString(Bad, &Err), nullptr) << Bad;
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Bad << ": "
                                                           << Err;
  }
  Err.clear();
  T = parseTypeString("t65535 -> t0", &Err);
  ASSERT_TRUE(T) << Err;
  EXPECT_EQ(T->show(), "t65535 -> t0");
}

//===----------------------------------------------------------------------===//
// Protocol: typed JSON <-> Value
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, JsonToValueFollowsTheType) {
  ValuePtr V = jsonToValue(*Json::parse("[1,2,3]"), tList(tInt()));
  ASSERT_TRUE(V);
  ASSERT_EQ(V->asList().size(), 3u);
  EXPECT_EQ(V->asList()[1]->asInt(), 2);

  // The same number becomes an int or a real depending on the type.
  EXPECT_TRUE(jsonToValue(*Json::parse("3"), tInt())->isInt());
  EXPECT_TRUE(jsonToValue(*Json::parse("3"), tReal())->isReal());
  // ...but a fractional number cannot be an int.
  std::string Err;
  EXPECT_EQ(jsonToValue(*Json::parse("3.5"), tInt(), &Err), nullptr);
  EXPECT_FALSE(Err.empty());

  // Strings become char lists; chars need exactly one character.
  ValuePtr S = jsonToValue(*Json::parse("\"hi\""), tString());
  ASSERT_TRUE(S);
  EXPECT_EQ(*Value::toString(S), "hi");
  EXPECT_EQ(jsonToValue(*Json::parse("\"hi\""), tChar()), nullptr);
  EXPECT_EQ(jsonToValue(*Json::parse("\"h\""), tChar())->asChar(), 'h');

  // Polymorphic types have no data representation.
  EXPECT_EQ(jsonToValue(*Json::parse("1"), t0()), nullptr);
}

TEST(ServeProtocolTest, ValueToJsonRendering) {
  EXPECT_EQ(valueToJson(Value::makeInt(-4)).dump(), "-4");
  EXPECT_EQ(valueToJson(Value::makeBool(true)).dump(), "true");
  EXPECT_EQ(valueToJson(Value::makeChar('x')).dump(), "\"x\"");
  EXPECT_EQ(valueToJson(Value::makeString("abc")).dump(), "\"abc\"");
  EXPECT_EQ(valueToJson(Value::makeList({Value::makeInt(1),
                                         Value::makeInt(2)}))
                .dump(),
            "[1,2]");
}

//===----------------------------------------------------------------------===//
// Protocol: envelopes
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, RequestEnvelopeParses) {
  auto R = parseRequestLine(
      R"({"id":"a1","method":"solve","params":{"task":"t"}})");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Id.asString(), "a1");
  EXPECT_EQ(R->Method, "solve");
  EXPECT_EQ(R->Params.find("task")->asString(), "t");

  std::string Err;
  EXPECT_FALSE(parseRequestLine(R"({"id":1})", &Err));
  EXPECT_NE(Err.find("method"), std::string::npos);
}

TEST(ServeProtocolTest, SolveParamsInlineTask) {
  auto P = Json::parse(
      R"json({"name":"idy","request":"list(int) -> list(int)",
          "examples":[{"inputs":[[1,2]],"output":[1,2]}],
          "timeout_ms":250,"node_budget":1000})json");
  ASSERT_TRUE(P);
  std::string Err;
  auto SP = parseSolveParams(*P, &Err);
  ASSERT_TRUE(SP) << Err;
  ASSERT_TRUE(SP->InlineTask);
  EXPECT_EQ(SP->InlineTask->name(), "idy");
  EXPECT_EQ(SP->InlineTask->request()->show(), "list(int) -> list(int)");
  EXPECT_EQ(SP->TimeoutMs, 250);
  EXPECT_EQ(SP->NodeBudget, 1000);
  // The built task scores programs: identity solves it.
  EXPECT_EQ(SP->InlineTask->examples().size(), 1u);
}

TEST(ServeProtocolTest, SolveParamsRejectsArityMismatch) {
  auto P = Json::parse(
      R"({"request":"int -> int -> int",
          "examples":[{"inputs":[1],"output":2}]})");
  ASSERT_TRUE(P);
  std::string Err;
  EXPECT_FALSE(parseSolveParams(*P, &Err));
  EXPECT_NE(Err.find("inputs"), std::string::npos);
}

TEST(ServeProtocolTest, ResponseBuilders) {
  Json Ok = makeOkResponse(Json::integer(3), Json::string("r"));
  EXPECT_EQ(Ok.dump(), R"({"id":3,"ok":true,"result":"r"})");
  Json Bad = makeErrorResponse(Json::null(), errc::Overloaded, "full");
  EXPECT_EQ(
      Bad.dump(),
      R"({"id":null,"ok":false,"error":{"code":"overloaded","message":"full"}})");
}

//===----------------------------------------------------------------------===//
// BoundedQueue
//===----------------------------------------------------------------------===//

TEST(ServeQueueTest, CapacityBoundsAdmission) {
  BoundedQueue<int> Q(2);
  EXPECT_EQ(Q.tryPush(1), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(2), PushResult::Ok);
  EXPECT_EQ(Q.tryPush(3), PushResult::Full); // the `overloaded` signal
  EXPECT_EQ(Q.depth(), 2u);
  EXPECT_EQ(*Q.pop(), 1);
  EXPECT_EQ(Q.tryPush(3), PushResult::Ok); // space again
}

TEST(ServeQueueTest, CloseStopsAdmissionButDrains) {
  BoundedQueue<int> Q(4);
  ASSERT_EQ(Q.tryPush(1), PushResult::Ok);
  ASSERT_EQ(Q.tryPush(2), PushResult::Ok);
  Q.close();
  // Closed, not Full: the reason is decided under the queue lock, so
  // the server's `shutting_down` vs `overloaded` answer cannot race
  // with a concurrent close().
  EXPECT_EQ(Q.tryPush(3), PushResult::Closed);
  EXPECT_TRUE(Q.closed());
  EXPECT_EQ(*Q.pop(), 1); // admitted work is never dropped
  EXPECT_EQ(*Q.pop(), 2);
  EXPECT_FALSE(Q.pop().has_value()); // worker exit signal
}

TEST(ServeQueueTest, FullAndClosedAreDistinguishedUnderConcurrentClose) {
  // A producer hammering a full queue while another thread closes it
  // must see Full strictly before Closed — never Full again after the
  // first Closed, and never a Closed that a follow-up closed() probe
  // would contradict. (With the old bool API both cases collapsed to
  // `false` and the server's separate closed() check raced.)
  BoundedQueue<int> Q(1);
  ASSERT_EQ(Q.tryPush(0), PushResult::Ok); // keep it full
  std::atomic<bool> SawClosed{false};
  std::atomic<bool> Violation{false};
  std::thread Producer([&] {
    while (!SawClosed.load()) {
      PushResult R = Q.tryPush(1);
      if (R == PushResult::Ok)
        Violation.store(true); // queue stays full, nothing pops
      if (R == PushResult::Closed)
        SawClosed.store(true); // close() is guaranteed to arrive
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Q.close();
  Producer.join();
  EXPECT_TRUE(SawClosed.load());
  EXPECT_FALSE(Violation.load());
  EXPECT_EQ(Q.tryPush(1), PushResult::Closed);
}

TEST(ServeQueueTest, ConcurrentProducersAndConsumers) {
  // 4 producers × 250 items through a tiny queue, drained by 3 consumers:
  // the consumed multiset must be exactly the produced one. Runs under
  // TSan in CI (the Serve suite is in the TSan job's regex).
  BoundedQueue<int> Q(8);
  constexpr int Producers = 4, PerProducer = 250;
  std::atomic<long> Sum{0};
  std::atomic<int> Count{0};

  std::vector<std::thread> Consumers;
  for (int I = 0; I < 3; ++I)
    Consumers.emplace_back([&] {
      while (std::optional<int> V = Q.pop()) {
        Sum.fetch_add(*V, std::memory_order_relaxed);
        Count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::vector<std::thread> Prods;
  for (int P = 0; P < Producers; ++P)
    Prods.emplace_back([&Q, P] {
      for (int I = 0; I < PerProducer; ++I) {
        int V = P * PerProducer + I;
        while (Q.tryPush(V) != PushResult::Ok) // spin like a retrying client
          std::this_thread::yield();
      }
    });
  for (std::thread &T : Prods)
    T.join();
  Q.close();
  for (std::thread &T : Consumers)
    T.join();

  const long N = Producers * PerProducer;
  EXPECT_EQ(Count.load(), N);
  EXPECT_EQ(Sum.load(), N * (N - 1) / 2);
}

TEST(ServeQueueTest, PopUntilTimesOutAndDrains) {
  // popUntil is the collector's linger primitive: it must return an
  // item promptly when one exists, nullopt once the deadline passes on
  // an empty queue, and keep draining items after close.
  BoundedQueue<int> Q(4);
  auto Soon = [] {
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(20);
  };
  EXPECT_FALSE(Q.popUntil(Soon()).has_value()) << "empty queue times out";
  ASSERT_EQ(Q.tryPush(7), PushResult::Ok);
  EXPECT_EQ(*Q.popUntil(Soon()), 7);

  // An item arriving mid-wait wakes the waiter before the deadline.
  std::thread Producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(Q.tryPush(8), PushResult::Ok);
  });
  std::optional<int> Got = Q.popUntil(std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10));
  Producer.join();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, 8);

  ASSERT_EQ(Q.tryPush(9), PushResult::Ok);
  Q.close();
  EXPECT_EQ(*Q.popUntil(Soon()), 9) << "closed queues still drain";
  EXPECT_FALSE(Q.popUntil(Soon()).has_value()) << "closed and drained";
}

TEST(ServeQueueTest, WaitForIdleConsumerReturnsOncePopWaits) {
  BoundedQueue<int> Q(4);
  std::atomic<int> Got{-1};
  std::thread Consumer([&] { Got = Q.pop().value_or(-2); });
  Q.waitForIdleConsumer(); // only returns once Consumer blocks in pop()
  ASSERT_EQ(Q.tryPush(7), PushResult::Ok);
  Consumer.join();
  EXPECT_EQ(Got.load(), 7);
  Q.close();
  Q.waitForIdleConsumer(); // a closed queue never blocks the caller
}

TEST(ServeQueueTest, PushWaitBlocksInsteadOfDropping) {
  // pushWait is the collector's handover primitive: admitted work must
  // never be dropped, so a full dispatch queue blocks the collector
  // until a worker pops — and only a close() makes it return false.
  BoundedQueue<int> Q(1);
  EXPECT_TRUE(Q.pushWait(1));
  std::atomic<bool> Second{false};
  std::thread Blocked([&] {
    EXPECT_TRUE(Q.pushWait(2)); // full: parks until the pop below
    Second.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(Second.load()) << "pushWait must block while full";
  EXPECT_EQ(*Q.pop(), 1);
  Blocked.join();
  EXPECT_TRUE(Second.load());
  EXPECT_EQ(*Q.pop(), 2);
  Q.close();
  EXPECT_FALSE(Q.pushWait(3)) << "closed queue admits nothing";
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

namespace {

TaskPtr identityTask() {
  std::vector<Example> Ex = {
      {{Value::makeList({Value::makeInt(1), Value::makeInt(2)})},
       Value::makeList({Value::makeInt(1), Value::makeInt(2)})},
      {{Value::makeList({Value::makeInt(7)})},
       Value::makeList({Value::makeInt(7)})},
  };
  return std::make_shared<Task>(
      "identity", Type::arrow(tList(tInt()), tList(tInt())), Ex);
}

TaskPtr unsolvableTask() {
  // The same input maps to two different outputs: no program satisfies
  // both examples, so only budgets or deadlines end the search.
  std::vector<Example> Ex = {
      {{Value::makeInt(1)}, Value::makeInt(2)},
      {{Value::makeInt(1)}, Value::makeInt(3)},
  };
  return std::make_shared<Task>("unsolvable", Type::arrow(tInt(), tInt()),
                                Ex);
}

std::unique_ptr<Service> makeListService() {
  ServiceConfig C;
  C.DomainName = "list";
  C.DefaultNodeBudget = 50000;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  EXPECT_TRUE(S) << Err;
  return S;
}

/// For tests that need a request to outlast its deadline. An unsolvable
/// search exhausts the list domain's 15-nat depth bound in about a
/// second; under the origami domain's 19-nat bound it runs for tens of
/// seconds, so once the node cap admits slowRequest's budget only the
/// deadline ends it.
std::unique_ptr<Service> makeOrigamiService() {
  ServiceConfig C;
  C.DomainName = "origami";
  C.MaxNodeBudget = 100000000;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  EXPECT_TRUE(S) << Err;
  return S;
}

/// Saves a fresh recognition model matched to the list domain's uniform
/// base grammar (deterministic seeded-glorot weights; training is not
/// needed for identity tests — only that every server loading this file
/// predicts identically).
std::string writeListModel(const std::string &FileName) {
  DomainSpec D = makeListDomain(1);
  Grammar G = Grammar::uniform(D.BasePrimitives);
  RecognitionParams RP;
  RP.HiddenDim = 16;
  RecognitionModel Model(G, *D.Featurizer, RP);
  std::string Path = testing::TempDir() + "/" + FileName;
  std::ofstream Out(Path);
  saveRecognitionModel(Model, Out);
  return Path;
}

std::unique_ptr<Service> makeListModelService(const std::string &ModelPath) {
  ServiceConfig C;
  C.DomainName = "list";
  C.DefaultNodeBudget = 50000;
  C.ModelPath = ModelPath;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  EXPECT_TRUE(S) << Err;
  return S;
}

std::string beamSignature(const Frontier &F) {
  std::string Sig;
  for (const FrontierEntry &E : F.entries()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "|%.17g", E.LogPrior);
    Sig += E.Program->show() + Buf;
  }
  return Sig;
}

} // namespace

TEST(ServeServiceTest, UnknownDomainFails) {
  ServiceConfig C;
  C.DomainName = "no-such-domain";
  std::string Err;
  EXPECT_EQ(Service::create(C, &Err), nullptr);
  EXPECT_NE(Err.find("no-such-domain"), std::string::npos);
}

TEST(ServeServiceTest, MissingCheckpointFails) {
  ServiceConfig C;
  C.DomainName = "list";
  C.CheckpointPath = "/nonexistent/lib.ckpt";
  std::string Err;
  EXPECT_EQ(Service::create(C, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(ServeServiceTest, ErrorBufferIsOverwrittenAcrossFailures) {
  // Regression: fail() used to write *ErrorOut only when it was empty,
  // so a caller reusing an error buffer across two create() attempts
  // saw the FIRST failure's message after the SECOND failure.
  std::string Err;
  ServiceConfig C1;
  C1.DomainName = "first-bogus-domain";
  EXPECT_EQ(Service::create(C1, &Err), nullptr);
  EXPECT_NE(Err.find("first-bogus-domain"), std::string::npos);

  ServiceConfig C2;
  C2.DomainName = "second-bogus-domain";
  EXPECT_EQ(Service::create(C2, &Err), nullptr); // same, non-cleared Err
  EXPECT_NE(Err.find("second-bogus-domain"), std::string::npos)
      << "stale error from the first failure: " << Err;
}

TEST(ServeServiceTest, SeedlessDomainsRejectNonzeroSeed) {
  // logo and tower have fixed ground-truth corpora: their generators
  // ignore the seed, so `--seed 9` used to silently serve a corpus that
  // didn't match what the operator asked for.
  for (const char *Domain : {"logo", "tower"}) {
    ServiceConfig C;
    C.DomainName = Domain;
    C.DomainSeed = 9;
    std::string Err;
    EXPECT_EQ(Service::create(C, &Err), nullptr) << Domain;
    EXPECT_NE(Err.find("seed"), std::string::npos) << Domain << ": " << Err;
    EXPECT_NE(Err.find(Domain), std::string::npos) << Err;

    // Seed 0 ("use the domain default") still loads.
    C.DomainSeed = 0;
    std::unique_ptr<Service> S = Service::create(C, &Err);
    EXPECT_TRUE(S) << Domain << ": " << Err;
  }
}

TEST(ServeServiceTest, TaskIndexRejectsDuplicateNames) {
  DomainSpec D;
  D.Name = "synthetic";
  std::vector<Example> Ex = {{{Value::makeInt(1)}, Value::makeInt(1)}};
  TypePtr Req = Type::arrow(tInt(), tInt());
  D.TrainTasks.push_back(std::make_shared<Task>("dup", Req, Ex));
  D.TestTasks.push_back(std::make_shared<Task>("dup", Req, Ex));

  std::unordered_map<std::string, TaskPtr> Index;
  std::string Err;
  EXPECT_FALSE(detail::buildTaskIndex(D, Index, &Err));
  EXPECT_NE(Err.find("dup"), std::string::npos);

  // Distinct names index fine, train looked up before test by name.
  D.TestTasks[0] = std::make_shared<Task>("other", Req, Ex);
  Err.clear();
  ASSERT_TRUE(detail::buildTaskIndex(D, Index, &Err)) << Err;
  EXPECT_EQ(Index.size(), 2u);
  EXPECT_EQ(Index.at("dup"), D.TrainTasks[0]);
  EXPECT_EQ(Index.at("other"), D.TestTasks[0]);
}

TEST(ServeServiceTest, SolvesIdentityInline) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(identityTask(), /*RemainingSeconds=*/60.0,
                       /*NodeBudget=*/0, /*FrontierSize=*/0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Solved);
  EXPECT_FALSE(O.DeadlineExpired);
  ASSERT_FALSE(O.Beam.empty());
  EXPECT_EQ(O.Beam.best()->Program->show(), "(lambda $0)");
  EXPECT_GT(O.NodesExpanded, 0);
}

TEST(ServeServiceTest, RepeatedSolvesDoNotGrowTheInternTables) {
  // Search mints no type nodes, and the partial programs it interns are
  // the same ones on every repeat: after the first solve of each request
  // has interned what it parses, declares and visits, both tables stay
  // flat, so a long-lived server's memory does not creep with repeated
  // traffic. (A new request does grow the Expr table.)
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  auto SolveAll = [&] {
    S->solve(identityTask(), 60.0, /*NodeBudget=*/20000, 0);
    S->solve(unsolvableTask(), 60.0, /*NodeBudget=*/20000, 0);
    for (size_t I = 0; I < 4; ++I)
      S->solve(S->domain().TrainTasks[I], 60.0, /*NodeBudget=*/20000, 0);
  };
  SolveAll();
  const size_t Types = Type::internedCount();
  const size_t Exprs = Expr::internedCount();
  for (int Round = 0; Round < 3; ++Round)
    SolveAll();
  EXPECT_EQ(Type::internedCount(), Types);
  EXPECT_EQ(Expr::internedCount(), Exprs);
}

TEST(ServeServiceTest, ExpiredDeadlineShortCircuits) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(identityTask(), /*RemainingSeconds=*/-1.0, 0, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Timeout);
  EXPECT_TRUE(O.DeadlineExpired);
  EXPECT_EQ(O.NodesExpanded, 0); // never searched
}

TEST(ServeServiceTest, DeadlineDuringSearchReportsTimeout) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  Outcome O = S->solve(unsolvableTask(), /*RemainingSeconds=*/0.05,
                       /*NodeBudget=*/100000000, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::Timeout);
  EXPECT_TRUE(O.DeadlineExpired);
  EXPECT_TRUE(O.Beam.empty());
}

TEST(ServeServiceTest, NodeBudgetIsClampedToConfiguredMax) {
  ServiceConfig C;
  C.DomainName = "list";
  C.MaxNodeBudget = 20000;
  std::string Err;
  std::unique_ptr<Service> S = Service::create(C, &Err);
  ASSERT_TRUE(S) << Err;
  Outcome O = S->solve(unsolvableTask(), 60.0,
                       /*NodeBudget=*/100000000, 0);
  EXPECT_EQ(O.TheStatus, Outcome::Status::NoSolution);
  EXPECT_LE(O.NodesExpanded, 20000 + 1024); // slack: batch granularity
}

TEST(ServeServiceTest, CorpusLookupFindsTrainTasks) {
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  ASSERT_FALSE(S->domain().TrainTasks.empty());
  const std::string &Name = S->domain().TrainTasks.front()->name();
  EXPECT_EQ(S->taskByName(Name), S->domain().TrainTasks.front());
  EXPECT_EQ(S->taskByName("no such task"), nullptr);
}

TEST(ServeServiceTest, ConcurrentSolvesAreDeterministic) {
  // The acceptance bar: N threads solving the same request against one
  // shared Service get bit-identical beams. Runs under TSan in CI.
  std::unique_ptr<Service> S = makeListService();
  ASSERT_TRUE(S);
  constexpr int N = 4;
  std::vector<std::string> Sigs(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Outcome O = S->solve(identityTask(), 60.0, 50000, 0);
      Sigs[I] = O.TheStatus == Outcome::Status::Solved
                    ? beamSignature(O.Beam)
                    : "unsolved";
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(Sigs[I], Sigs[0]) << "thread " << I;
  EXPECT_NE(Sigs[0], "unsolved");
}

TEST(ServeServiceTest, GuidedSolveIsBitIdenticalToUnguided) {
  // The contract the micro-batching collector rests on: handing solve()
  // a guide precomputed by this service's own predictBatch yields the
  // exact beam the internal predict() path produces.
  std::string ModelPath = writeListModel("guided_solve.model");
  std::unique_ptr<Service> S = makeListModelService(ModelPath);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->hasRecognitionModel());

  TaskPtr T = identityTask();
  std::vector<const Task *> Tasks = {T.get()};
  std::vector<ContextualGrammar> Guides =
      S->recognitionModel()->predictBatch(Tasks);
  ASSERT_EQ(Guides.size(), 1u);

  Outcome Unguided = S->solve(T, 60.0, 0, 0);
  Outcome Guided = S->solve(T, 60.0, 0, 0, &Guides[0]);
  ASSERT_EQ(Unguided.TheStatus, Outcome::Status::Solved);
  ASSERT_EQ(Guided.TheStatus, Outcome::Status::Solved);
  EXPECT_EQ(beamSignature(Guided.Beam), beamSignature(Unguided.Beam));
  EXPECT_EQ(Guided.NodesExpanded, Unguided.NodesExpanded);
}

//===----------------------------------------------------------------------===//
// ServiceRegistry
//===----------------------------------------------------------------------===//

namespace {

/// Writes a checkpoint whose grammar is the list domain's base library
/// with shifted weights: same support as the default uniform grammar,
/// different log-priors for every program — a detectable "new library
/// generation" for reload tests.
std::string writeShiftedListCheckpoint(const std::string &FileName) {
  DomainSpec D = makeListDomain(1);
  Grammar G = Grammar::uniform(D.BasePrimitives);
  G.setLogVariable(-2.5); // default is -1.0: every $0 reference rescores
  for (size_t I = 0; I < G.productions().size(); ++I)
    G.productions()[I].LogWeight = -0.1 * static_cast<double>(I % 7);
  std::string Path = testing::TempDir() + "/" + FileName;
  std::ofstream Out(Path);
  serializeGrammar(G, Out);
  return Path;
}

} // namespace

TEST(ServeRegistryTest, InstallLookupAndEpochNumbers) {
  ServiceRegistry Reg;
  EXPECT_EQ(Reg.defaultService(), nullptr);
  EXPECT_EQ(Reg.lookup("list"), nullptr);

  ServiceRegistry::Snapshot First = Reg.install(makeListService());
  ASSERT_TRUE(First);
  EXPECT_EQ(First->epoch(), 1u);
  EXPECT_EQ(Reg.lookup("list"), First);
  EXPECT_EQ(Reg.defaultService(), First); // first install = default
  EXPECT_EQ(Reg.size(), 1u);
  ASSERT_EQ(Reg.domainNames().size(), 1u);
  EXPECT_EQ(Reg.domainNames()[0], "list");

  // Installing again bumps the epoch and swaps the snapshot; the old
  // epoch stays alive as long as someone holds it.
  ServiceRegistry::Snapshot Second = Reg.install(makeListService());
  EXPECT_EQ(Second->epoch(), 2u);
  EXPECT_EQ(Reg.lookup("list"), Second);
  EXPECT_EQ(First->epoch(), 1u); // the held snapshot is untouched
  EXPECT_EQ(Reg.size(), 1u);
}

TEST(ServeRegistryTest, ReloadSwapsEpochAndFailureKeepsOldOne) {
  ServiceRegistry Reg;
  ServiceRegistry::Snapshot Old = Reg.install(makeListService());
  ASSERT_TRUE(Old);

  // Unknown domains cannot be reloaded (reload swaps, it never adds).
  std::string Err;
  EXPECT_EQ(Reg.reload("text", &Err), nullptr);
  EXPECT_NE(Err.find("text"), std::string::npos);

  // A config that fails to load publishes nothing.
  ServiceConfig Bad = Old->config();
  Bad.CheckpointPath = "/nonexistent/lib.ckpt";
  EXPECT_EQ(Reg.reload("list", Bad, &Err), nullptr);
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Reg.lookup("list"), Old) << "failed reload must not publish";

  // A good config swaps to epoch 2 with the new grammar.
  ServiceConfig Good = Old->config();
  Good.CheckpointPath = writeShiftedListCheckpoint("reg_reload.ckpt");
  ServiceRegistry::Snapshot Fresh = Reg.reload("list", Good, &Err);
  ASSERT_TRUE(Fresh) << Err;
  EXPECT_EQ(Fresh->epoch(), 2u);
  EXPECT_EQ(Reg.lookup("list"), Fresh);
  EXPECT_NE(Fresh->grammar().logVariable(), Old->grammar().logVariable());

  // Old-epoch searches still run on the old grammar snapshot.
  Outcome OnOld = Old->solve(identityTask(), 60.0, 50000, 0);
  Outcome OnNew = Fresh->solve(identityTask(), 60.0, 50000, 0);
  ASSERT_EQ(OnOld.TheStatus, Outcome::Status::Solved);
  ASSERT_EQ(OnNew.TheStatus, Outcome::Status::Solved);
  EXPECT_EQ(OnOld.Beam.best()->Program->show(), "(lambda $0)");
  EXPECT_NE(beamSignature(OnOld.Beam), beamSignature(OnNew.Beam))
      << "shifted weights must change the scored beam";
}

TEST(ServeRegistryTest, IdenticalReloadsDoNotGrowTheInternTables) {
  // Loading a checkpoint parses its grammar, interning its primitives and
  // types. Reloading the same file finds every node again, so repeated
  // reloads of one library generation leave both tables flat.
  ServiceRegistry Reg;
  ServiceRegistry::Snapshot Old = Reg.install(makeListService());
  ASSERT_TRUE(Old);
  ServiceConfig Config = Old->config();
  Config.CheckpointPath = writeShiftedListCheckpoint("reg_same_reload.ckpt");
  std::string Err;
  ASSERT_TRUE(Reg.reload("list", Config, &Err)) << Err;
  const size_t Types = Type::internedCount();
  const size_t Exprs = Expr::internedCount();
  for (int Round = 0; Round < 3; ++Round)
    ASSERT_TRUE(Reg.reload("list", Config, &Err)) << Err;
  EXPECT_EQ(Reg.lookup("list")->epoch(), 5u);
  EXPECT_EQ(Type::internedCount(), Types);
  EXPECT_EQ(Expr::internedCount(), Exprs);
}

TEST(ServeProtocolTest, ReloadParamsParse) {
  // Bare reload: default domain, keep every configured path.
  std::optional<ReloadParams> RP = parseReloadParams(Json::null());
  ASSERT_TRUE(RP);
  EXPECT_TRUE(RP->Domain.empty());
  EXPECT_FALSE(RP->Checkpoint || RP->Model || RP->Seed);

  auto P = Json::parse(
      R"({"domain":"text","checkpoint":"b.ckpt","model":"","seed":7})");
  ASSERT_TRUE(P);
  std::string Err;
  RP = parseReloadParams(*P, &Err);
  ASSERT_TRUE(RP) << Err;
  EXPECT_EQ(RP->Domain, "text");
  EXPECT_EQ(*RP->Checkpoint, "b.ckpt");
  EXPECT_EQ(*RP->Model, ""); // explicit "": clear the model
  EXPECT_EQ(*RP->Seed, 7u);

  for (const char *Bad :
       {R"({"domain":""})", R"({"domain":3})", R"({"checkpoint":1})",
        R"({"seed":-1})", R"({"seed":1.5})", R"([1,2])"}) {
    Err.clear();
    EXPECT_FALSE(parseReloadParams(*Json::parse(Bad), &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ServeProtocolTest, SolveParamsDomainRouting) {
  auto P = Json::parse(R"({"task":"t","domain":"text"})");
  ASSERT_TRUE(P);
  std::string Err;
  auto SP = parseSolveParams(*P, &Err);
  ASSERT_TRUE(SP) << Err;
  EXPECT_EQ(SP->Domain, "text");

  // Absent domain = default route; empty/typed wrong = bad_request.
  SP = parseSolveParams(*Json::parse(R"({"task":"t"})"));
  ASSERT_TRUE(SP);
  EXPECT_TRUE(SP->Domain.empty());
  EXPECT_FALSE(parseSolveParams(*Json::parse(R"({"task":"t","domain":""})")));
  EXPECT_FALSE(parseSolveParams(*Json::parse(R"({"task":"t","domain":2})")));
}

//===----------------------------------------------------------------------===//
// Server end-to-end (sockets, workers, shutdown)
//===----------------------------------------------------------------------===//

namespace {

/// Minimal blocking client for the line protocol.
class TestClient {
public:
  explicit TestClient(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    Connected = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
  }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connected() const { return Connected; }

  void sendLine(const std::string &Body) {
    std::string Line = Body + "\n";
    ASSERT_EQ(::send(Fd, Line.data(), Line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Line.size()));
  }

  Json recvLine() {
    while (Buffer.find('\n') == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return Json::null();
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    size_t NL = Buffer.find('\n');
    std::string Line = Buffer.substr(0, NL);
    Buffer.erase(0, NL + 1);
    std::optional<Json> J = Json::parse(Line);
    return J ? *J : Json::null();
  }

  Json roundTrip(const std::string &Body) {
    sendLine(Body);
    return recvLine();
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buffer;
};

constexpr const char *IdentityRequest =
    R"json({"id":1,"method":"solve","params":{"request":"list(int) -> list(int)",)json"
    R"json("examples":[{"inputs":[[1,2,3]],"output":[1,2,3]},{"inputs":[[4]],"output":[4]}],)json"
    R"json("timeout_ms":60000,"node_budget":50000}})json";

/// An unsolvable solve with an explicit id and optional "domain" route;
/// routed to makeOrigamiService() it lasts until its deadline.
std::string slowRequest(const char *Id, long TimeoutMs,
                        const char *Domain = nullptr) {
  std::string R = std::string(R"({"id":")") + Id +
                  R"(","method":"solve","params":{)";
  if (Domain)
    R += std::string(R"("domain":")") + Domain + R"(",)";
  return R + R"("request":"int -> int",)" +
         R"("examples":[{"inputs":[1],"output":2},{"inputs":[1],"output":3}],)" +
         R"("timeout_ms":)" + std::to_string(TimeoutMs) +
         R"(,"node_budget":100000000}})";
}

/// An identity solve with an explicit id and optional "domain" route.
std::string identityRequest(const char *Id, const char *Domain = nullptr) {
  std::string R = std::string(R"({"id":")") + Id +
                  R"(","method":"solve","params":{)";
  if (Domain)
    R += std::string(R"("domain":")") + Domain + R"(",)";
  R += R"json("request":"list(int) -> list(int)",)json"
       R"json("examples":[{"inputs":[[1,2,3]],"output":[1,2,3]},)json"
       R"json({"inputs":[[4]],"output":[4]}],)json"
       R"json("timeout_ms":60000,"node_budget":50000}})json";
  return R;
}

/// A head-of-list solve with an explicit id: a second, distinct solvable
/// task so a batched predict whose rows were swapped or misaligned would
/// produce detectably different answers.
std::string carRequest(const char *Id) {
  return std::string(R"({"id":")") + Id +
         R"(","method":"solve","params":{"request":"list(int) -> int",)" +
         R"("examples":[{"inputs":[[1,2]],"output":1},)" +
         R"({"inputs":[[7,8]],"output":7}],)" +
         R"("timeout_ms":60000,"node_budget":50000}})";
}

/// A top-level count of a stats() body.
long long statCount(const Json &Stats, const char *Key) {
  const Json *V = Stats.find(Key);
  return V ? V->asInteger() : -1;
}

/// One outcome count of a (domain, epoch) row of a stats() body; -1 when
/// the row is missing.
long long epochCount(const Json &Stats, const std::string &Domain,
                     long long Epoch, const char *Key) {
  const Json *D = Stats.find("domains")->find(Domain);
  if (!D)
    return -1;
  for (const Json &Row : D->find("epochs")->items())
    if (Row.find("epoch")->asInteger() == Epoch)
      return Row.find(Key)->asInteger();
  return -1;
}

/// The full scored program list of a solve response — the bit-identity
/// fingerprint reload tests compare across epochs.
std::string programsSignature(const Json &Response) {
  const Json *Result = Response.find("result");
  if (!Result || !Result->find("programs"))
    return "<no-programs:" + Response.dump() + ">";
  return Result->find("programs")->dump();
}

} // namespace

TEST(ServeServerTest, EndToEndSolveHealthStats) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ServerConfig SC;
  SC.Workers = 2;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;
  ASSERT_GT(Srv->port(), 0);

  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());

  Json Health = C.roundTrip(R"({"id":"h","method":"health"})");
  ASSERT_TRUE(Health.find("ok"));
  EXPECT_TRUE(Health.find("ok")->asBool());
  EXPECT_EQ(Health.find("result")->find("domain")->asString(), "list");
  const Json *HealthDomains = Health.find("result")->find("domains");
  ASSERT_TRUE(HealthDomains);
  EXPECT_EQ(HealthDomains->find("list")->find("epoch")->asInteger(), 1);

  Json Solve = C.roundTrip(IdentityRequest);
  ASSERT_TRUE(Solve.find("ok"));
  ASSERT_TRUE(Solve.find("ok")->asBool()) << Solve.dump();
  const Json *Result = Solve.find("result");
  EXPECT_EQ(Result->find("status")->asString(), "solved");
  ASSERT_FALSE(Result->find("programs")->items().empty());
  EXPECT_EQ(
      Result->find("programs")->items()[0].find("program")->asString(),
      "(lambda $0)");
  EXPECT_EQ(Result->find("domain")->asString(), "list");
  EXPECT_EQ(Result->find("epoch")->asInteger(), 1);

  // Explicit routing to the one loaded domain behaves like the default.
  Json Routed = C.roundTrip(identityRequest("r", "list"));
  ASSERT_TRUE(Routed.find("ok")->asBool()) << Routed.dump();
  EXPECT_EQ(programsSignature(Routed), programsSignature(Solve));

  // Past-deadline request: structured timeout, not a hang or crash.
  Json Timeout = C.roundTrip(slowRequest("t", 1));
  EXPECT_FALSE(Timeout.find("ok")->asBool());
  EXPECT_EQ(Timeout.find("error")->find("code")->asString(), "timeout");

  // Unknown things are structured errors too.
  Json Unknown =
      C.roundTrip(R"({"id":9,"method":"solve","params":{"task":"?"}})");
  EXPECT_EQ(Unknown.find("error")->find("code")->asString(),
            "unknown_task");
  Json NoSuchDomain = C.roundTrip(identityRequest("nd", "text"));
  EXPECT_FALSE(NoSuchDomain.find("ok")->asBool());
  EXPECT_EQ(NoSuchDomain.find("error")->find("code")->asString(),
            "unknown_domain");
  Json BadMethod = C.roundTrip(R"({"id":10,"method":"frobnicate"})");
  EXPECT_EQ(BadMethod.find("error")->find("code")->asString(),
            "unknown_method");
  Json NotJson = C.roundTrip("not json at all");
  EXPECT_EQ(NotJson.find("error")->find("code")->asString(),
            "bad_request");

  Json Stats = C.roundTrip(R"({"id":"s","method":"stats"})");
  const Json *SR = Stats.find("result");
  EXPECT_EQ(SR->find("solved")->asInteger(), 2);
  EXPECT_EQ(SR->find("timeout")->asInteger(), 1);
  EXPECT_GE(SR->find("accepted")->asInteger(), 3);
  const Json *StatsDomains = SR->find("domains");
  ASSERT_TRUE(StatsDomains);
  const Json *ListEpochs = StatsDomains->find("list")->find("epochs");
  ASSERT_TRUE(ListEpochs);
  ASSERT_EQ(ListEpochs->items().size(), 1u);
  EXPECT_EQ(ListEpochs->items()[0].find("epoch")->asInteger(), 1);
  EXPECT_EQ(ListEpochs->items()[0].find("solved")->asInteger(), 2);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  Json Final = Srv->stats();
  EXPECT_EQ(statCount(Final, "solved"), 2);
  EXPECT_EQ(statCount(Final, "timeout"), 1);
  EXPECT_EQ(epochCount(Final, "list", 1, "solved"), 2);
  EXPECT_EQ(epochCount(Final, "list", 1, "timeout"), 1);
}

TEST(ServeServerTest, RefusedInlineTypesInternNothing) {
  // A refused inline task must neither crash the server nor intern a
  // type, since interned types live for the rest of the process: nesting
  // deeper than the parser's cap (600 KB fits under the line limit),
  // unknown constructors however wide, known names at the wrong arity,
  // polymorphic or functional signatures. The requests are distinct, as
  // a client probing for memory growth would send them, and the next
  // solve must still be answered.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, ServerConfig{}, &Err);
  ASSERT_TRUE(Srv) << Err;
  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());
  Json Warm = C.roundTrip(IdentityRequest);
  ASSERT_TRUE(Warm.find("ok")->asBool()) << Warm.dump();

  auto ExpectBadRequest = [&](const std::string &Request) {
    Json Resp = C.roundTrip(
        R"({"id":"r","method":"solve","params":{"request":")" + Request +
        R"(","examples":[{"inputs":[1],"output":1}]}})");
    ASSERT_TRUE(Resp.find("error")) << Request.substr(0, 80) << ": "
                                    << Resp.dump();
    EXPECT_EQ(Resp.find("error")->find("code")->asString(), "bad_request")
        << Request.substr(0, 80);
  };
  const size_t Before = Type::internedCount();
  ExpectBadRequest(std::string(300000, '(') + "int" +
                   std::string(300000, ')') + " -> int");
  for (int I = 0; I < 200; ++I) {
    std::string N = std::to_string(I);
    std::string Wide = "c" + N + "(";
    for (int A = 0; A < 50; ++A)
      Wide += std::string(A ? "," : "") + "a" + N + "_" + std::to_string(A);
    Wide += ")";
    std::string Nested = "list(list(list(list(int))))";
    for (int D = 0; D < I % 7; ++D)
      Nested = "list(" + Nested + ")";
    for (const std::string &Request :
         {Wide, Nested + " -> " + Wide, "list(" + Nested + ", int)",
          Nested + " -> t" + N, "(" + Nested + " -> int) -> int",
          Nested + " -> int(" + Nested + ")"})
      ExpectBadRequest(Request);
  }
  EXPECT_EQ(Type::internedCount(), Before);

  Json Solve = C.roundTrip(IdentityRequest);
  ASSERT_TRUE(Solve.find("ok")->asBool()) << Solve.dump();
  EXPECT_EQ(Solve.find("result")->find("status")->asString(), "solved");
}

TEST(ServeServerTest, OverloadRejectionAndGracefulDrain) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ASSERT_TRUE(Reg.install(makeOrigamiService()));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 1;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  // A occupies the worker, B fills the queue (poll the stats endpoint to
  // sequence deterministically), C must bounce off admission control.
  TestClient A(Srv->port()), B(Srv->port()), C(Srv->port()),
      Probe(Srv->port());
  ASSERT_TRUE(A.connected() && B.connected() && C.connected() &&
              Probe.connected());

  auto occupancy = [&]() -> std::pair<long, long> {
    Json S = Probe.roundTrip(R"({"id":"p","method":"stats"})");
    const Json *R = S.find("result");
    return {R->find("accepted")->asInteger(),
            R->find("queue_depth")->asInteger()};
  };
  auto waitFor = [&](long Accepted, long Depth) {
    for (int I = 0; I < 400; ++I) {
      if (occupancy() == std::make_pair(Accepted, Depth))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  A.sendLine(slowRequest("a", 3000, "origami"));
  ASSERT_TRUE(waitFor(1, 0)) << "A never reached the worker";
  B.sendLine(slowRequest("b", 3000, "origami"));
  ASSERT_TRUE(waitFor(2, 1)) << "B never queued";

  Json Rejected = C.roundTrip(slowRequest("c", 3000, "origami"));
  EXPECT_FALSE(Rejected.find("ok")->asBool());
  EXPECT_EQ(Rejected.find("error")->find("code")->asString(),
            "overloaded");

  // Shutdown with A in flight and B queued: both drain to answers (their
  // task is unsolvable, so timeouts), post-shutdown work is rejected as
  // shutting_down, and teardown joins every thread.
  Srv->requestShutdown();
  Json Refused = Probe.roundTrip(slowRequest("d", 3000, "origami"));
  EXPECT_EQ(Refused.find("error")->find("code")->asString(),
            "shutting_down");

  Json RespA = A.recvLine();
  EXPECT_EQ(RespA.find("id")->asString(), "a");
  EXPECT_EQ(RespA.find("error")->find("code")->asString(), "timeout");
  Json RespB = B.recvLine();
  EXPECT_EQ(RespB.find("id")->asString(), "b");
  EXPECT_EQ(RespB.find("error")->find("code")->asString(), "timeout");

  Srv->waitForShutdown();
  Json Final = Srv->stats();
  EXPECT_EQ(statCount(Final, "accepted"), 2);
  EXPECT_GE(statCount(Final, "rejected"), 2); // C overloaded + D shutting_down
  EXPECT_EQ(statCount(Final, "timeout"), 2);
}

TEST(ServeServerTest, HotReloadUnderLoad) {
  // One worker makes the service order deterministic: slow occupies the
  // worker, "pre" queues behind it on epoch 1, the reload publishes
  // epoch 2 while both are still pending, "post" admits on epoch 2.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ASSERT_TRUE(Reg.install(makeOrigamiService()));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port()), Slow(Srv->port()), Probe(Srv->port());
  ASSERT_TRUE(C.connected() && Slow.connected() && Probe.connected());

  auto occupancy = [&]() -> std::pair<long, long> {
    Json S = Probe.roundTrip(R"({"id":"p","method":"stats"})");
    const Json *R = S.find("result");
    return {R->find("accepted")->asInteger(),
            R->find("queue_depth")->asInteger()};
  };
  auto waitFor = [&](long Accepted, long Depth) {
    for (int I = 0; I < 400; ++I) {
      if (occupancy() == std::make_pair(Accepted, Depth))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  // Baseline answer on epoch 1.
  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(Baseline.find("ok")->asBool()) << Baseline.dump();
  EXPECT_EQ(Baseline.find("result")->find("epoch")->asInteger(), 1);
  std::string SigA = programsSignature(Baseline);

  // Occupy the worker, then pipeline "pre" behind it on epoch 1.
  Slow.sendLine(slowRequest("slow", 2000, "origami"));
  ASSERT_TRUE(waitFor(2, 0)) << "slow never reached the worker";
  C.sendLine(identityRequest("pre"));
  ASSERT_TRUE(waitFor(3, 1)) << "pre never queued";

  // Reload runs on the probe's reader thread while the worker is busy:
  // connections stay open, nothing admitted is dropped.
  std::string CkptB = writeShiftedListCheckpoint("hot_reload_b.ckpt");
  Json ReloadResp = Probe.roundTrip(
      R"({"id":"rl","method":"reload","params":{"checkpoint":")" + CkptB +
      R"("}})");
  ASSERT_TRUE(ReloadResp.find("ok")) << ReloadResp.dump();
  ASSERT_TRUE(ReloadResp.find("ok")->asBool()) << ReloadResp.dump();
  EXPECT_EQ(ReloadResp.find("result")->find("epoch")->asInteger(), 2);

  // Post-reload admission routes to epoch 2.
  C.sendLine(identityRequest("post"));

  // slow drains first (unsolvable -> timeout), then pre, then post.
  Json SlowResp = Slow.recvLine();
  EXPECT_EQ(SlowResp.find("error")->find("code")->asString(), "timeout");

  Json Pre = C.recvLine();
  EXPECT_EQ(Pre.find("id")->asString(), "pre");
  ASSERT_TRUE(Pre.find("ok")->asBool()) << Pre.dump();
  EXPECT_EQ(Pre.find("result")->find("epoch")->asInteger(), 1)
      << "work admitted before the reload must finish on its epoch";
  EXPECT_EQ(programsSignature(Pre), SigA)
      << "pre-reload answer must be bit-identical to the baseline";

  Json Post = C.recvLine();
  EXPECT_EQ(Post.find("id")->asString(), "post");
  ASSERT_TRUE(Post.find("ok")->asBool()) << Post.dump();
  EXPECT_EQ(Post.find("result")->find("epoch")->asInteger(), 2);
  EXPECT_NE(programsSignature(Post), SigA)
      << "the shifted checkpoint must change the scored beam";

  // The epoch history splits the outcomes across library generations.
  Json Stats = Probe.roundTrip(R"({"id":"s","method":"stats"})");
  const Json *SR = Stats.find("result");
  EXPECT_EQ(SR->find("reloads")->asInteger(), 1);
  EXPECT_EQ(SR->find("failed_reloads")->asInteger(), 0);
  const Json *ListDomain = SR->find("domains")->find("list");
  ASSERT_TRUE(ListDomain);
  EXPECT_EQ(ListDomain->find("epoch")->asInteger(), 2);
  ASSERT_EQ(ListDomain->find("epochs")->items().size(), 2u);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  Json Final = Srv->stats();
  EXPECT_EQ(epochCount(Final, "list", 1, "solved"), 2);  // base + pre
  EXPECT_EQ(epochCount(Final, "origami", 1, "timeout"), 1); // slow
  EXPECT_EQ(epochCount(Final, "list", 2, "solved"), 1);  // post
  EXPECT_EQ(statCount(Final, "accepted"), 4);
  EXPECT_EQ(statCount(Final, "rejected"), 0)
      << "reload must drop no admitted work";
}

TEST(ServeServerTest, ReloadFailedLeavesOldEpochServing) {
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ServerConfig SC;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port());
  ASSERT_TRUE(C.connected());
  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(Baseline.find("ok")->asBool()) << Baseline.dump();
  std::string SigA = programsSignature(Baseline);

  // A checkpoint that cannot load publishes nothing.
  Json Failed = C.roundTrip(
      R"({"id":"rl","method":"reload","params":)"
      R"({"checkpoint":"/nonexistent/lib.ckpt"}})");
  EXPECT_FALSE(Failed.find("ok")->asBool());
  EXPECT_EQ(Failed.find("error")->find("code")->asString(),
            "reload_failed");

  // Reloading a domain that was never loaded is a routing error.
  Json NoDomain = C.roundTrip(
      R"({"id":"rd","method":"reload","params":{"domain":"text"}})");
  EXPECT_EQ(NoDomain.find("error")->find("code")->asString(),
            "unknown_domain");

  // The old epoch keeps serving, bit-identically.
  Json After = C.roundTrip(identityRequest("after"));
  ASSERT_TRUE(After.find("ok")->asBool()) << After.dump();
  EXPECT_EQ(After.find("result")->find("epoch")->asInteger(), 1);
  EXPECT_EQ(programsSignature(After), SigA);

  Srv->requestShutdown();
  Srv->waitForShutdown();
  Json Final = Srv->stats();
  EXPECT_EQ(statCount(Final, "reloads"), 0);
  EXPECT_EQ(statCount(Final, "failed_reloads"), 1);
}

TEST(ServeServerTest, BatchedAnswersMatchUnbatched) {
  // The micro-batching acceptance bar: the same pipelined request mix
  // against a batching server and a non-batching server — both loading
  // the identical recognition model — produces bit-identical answers.
  // One worker forces the batched server to actually collect (requests
  // pile up behind the in-flight solve) rather than racing them through
  // one at a time.
  std::string ModelPath = writeListModel("batch_e2e.model");
  const char *Ids[] = {"q0", "q1", "q2", "q3"};
  auto Request = [&](int I) {
    return I % 2 == 0 ? identityRequest(Ids[I]) : carRequest(Ids[I]);
  };

  auto RunServer = [&](bool Batched) {
    ServiceRegistry Reg;
    std::map<std::string, std::string> Sigs;
    EXPECT_TRUE(Reg.install(makeListModelService(ModelPath)));
    ServerConfig SC;
    SC.Workers = 1;
    if (Batched) {
      SC.MaxBatch = 4;
      SC.BatchLingerMicros = 200000; // generous: all 4 must collect
    }
    std::string Err;
    std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
    EXPECT_TRUE(Srv) << Err;
    if (!Srv)
      return Sigs;

    TestClient C(Srv->port());
    EXPECT_TRUE(C.connected());
    for (int I = 0; I < 4; ++I)
      C.sendLine(Request(I));
    for (int I = 0; I < 4; ++I) {
      Json Resp = C.recvLine();
      if (!Resp.find("ok") || !Resp.find("ok")->asBool()) {
        ADD_FAILURE() << "solve failed: " << Resp.dump();
        continue;
      }
      Sigs[Resp.find("id")->asString()] = programsSignature(Resp);
    }
    if (Batched) {
      Json Stats = C.roundTrip(R"({"id":"s","method":"stats"})");
      const Json *SR = Stats.find("result");
      EXPECT_EQ(SR->find("max_batch")->asInteger(), 4);
      EXPECT_GE(SR->find("batched_predicts")->asInteger(), 1)
          << "the collector never ran a batched prediction";
    }
    Srv->requestShutdown();
    Srv->waitForShutdown();
    if (Batched) {
      EXPECT_GE(statCount(Srv->stats(), "batched_predicts"), 1);
    }
    return Sigs;
  };

  std::map<std::string, std::string> Unbatched = RunServer(false);
  std::map<std::string, std::string> Batched = RunServer(true);
  ASSERT_EQ(Unbatched.size(), 4u);
  ASSERT_EQ(Batched.size(), 4u);
  for (const char *Id : Ids) {
    ASSERT_TRUE(Unbatched.count(Id)) << Id;
    ASSERT_TRUE(Batched.count(Id)) << Id;
    EXPECT_EQ(Batched.at(Id), Unbatched.at(Id))
        << "batching changed the answer for " << Id;
  }
  EXPECT_NE(Unbatched.at("q0"), Unbatched.at("q1"))
      << "the two request kinds must have distinguishable answers";
}

TEST(ServeServerTest, BatchedHotReloadNeverMixesEpochs) {
  // Epoch purity under batching: requests admitted before a reload keep
  // their epoch-1 snapshot (and its model) even when they sit in the
  // collector/dispatch pipeline while epoch 2 publishes; requests
  // admitted after route to epoch 2. Grouping is by snapshot pointer,
  // so a predictBatch can never span the reload boundary.
  std::string ModelPath = writeListModel("batch_reload.model");
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListModelService(ModelPath)));
  ASSERT_TRUE(Reg.install(makeOrigamiService()));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  SC.MaxBatch = 4;
  SC.BatchLingerMicros = 100000;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port()), Slow(Srv->port()), Probe(Srv->port());
  ASSERT_TRUE(C.connected() && Slow.connected() && Probe.connected());
  auto waitForAccepted = [&](long Accepted) {
    for (int I = 0; I < 400; ++I) {
      Json S = Probe.roundTrip(R"({"id":"p","method":"stats"})");
      if (S.find("result")->find("accepted")->asInteger() == Accepted)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };

  Json Baseline = C.roundTrip(identityRequest("base"));
  ASSERT_TRUE(Baseline.find("ok")->asBool()) << Baseline.dump();
  EXPECT_EQ(Baseline.find("result")->find("epoch")->asInteger(), 1);
  std::string SigA = programsSignature(Baseline);

  // Occupy the single worker, then pipeline "pre" behind it: both are
  // admitted — and snapshot their epoch — before the reload below.
  Slow.sendLine(slowRequest("slow", 2000, "origami"));
  ASSERT_TRUE(waitForAccepted(2)) << "slow never admitted";
  C.sendLine(identityRequest("pre"));
  ASSERT_TRUE(waitForAccepted(3)) << "pre never admitted";

  Json ReloadResp =
      Probe.roundTrip(R"({"id":"rl","method":"reload"})");
  ASSERT_TRUE(ReloadResp.find("ok")->asBool()) << ReloadResp.dump();
  EXPECT_EQ(ReloadResp.find("result")->find("epoch")->asInteger(), 2);

  C.sendLine(identityRequest("post"));

  Json SlowResp = Slow.recvLine();
  EXPECT_EQ(SlowResp.find("error")->find("code")->asString(), "timeout");
  Json Pre = C.recvLine();
  EXPECT_EQ(Pre.find("id")->asString(), "pre");
  ASSERT_TRUE(Pre.find("ok")->asBool()) << Pre.dump();
  EXPECT_EQ(Pre.find("result")->find("epoch")->asInteger(), 1)
      << "work admitted before the reload must answer on its epoch";
  EXPECT_EQ(programsSignature(Pre), SigA);
  Json Post = C.recvLine();
  EXPECT_EQ(Post.find("id")->asString(), "post");
  ASSERT_TRUE(Post.find("ok")->asBool()) << Post.dump();
  EXPECT_EQ(Post.find("result")->find("epoch")->asInteger(), 2);
  EXPECT_EQ(programsSignature(Post), SigA)
      << "same checkpoint and model reloaded: epoch 2 answers match";

  Srv->requestShutdown();
  Srv->waitForShutdown();
  Json Final = Srv->stats();
  EXPECT_EQ(epochCount(Final, "list", 1, "solved"), 2);  // base + pre
  EXPECT_EQ(epochCount(Final, "origami", 1, "timeout"), 1); // slow
  EXPECT_EQ(epochCount(Final, "list", 2, "solved"), 1);  // post
  EXPECT_GE(statCount(Final, "batched_predicts"), 1);
}

TEST(ServeServerTest, EveryResponseIsCountedOnce) {
  // One request for every error code the server produces (internal has
  // no trigger) plus solves with each outcome. Every response but
  // health/stats lands in exactly one count of the store.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  ASSERT_TRUE(Reg.install(makeOrigamiService()));
  ServerConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 1;
  SC.MaxLineBytes = 1024;
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, SC, &Err);
  ASSERT_TRUE(Srv) << Err;

  TestClient C(Srv->port()), A(Srv->port()), B(Srv->port()),
      Probe(Srv->port());
  ASSERT_TRUE(C.connected() && A.connected() && B.connected() &&
              Probe.connected());
  std::map<std::string, int> Codes;
  int Responses = 0;
  auto Tally = [&](const Json &Resp) {
    ++Responses;
    const Json *Error = Resp.find("error");
    const Json *Result = Resp.find("result");
    const Json *Status = Result ? Result->find("status") : nullptr;
    ++Codes[Error    ? Error->find("code")->asString()
            : Status ? Status->asString()
            : Result ? "reloaded"
                     : "no response"];
  };

  Tally(C.roundTrip(identityRequest("solved")));
  Tally(C.roundTrip(
      R"({"id":"ns","method":"solve","params":{"request":"int -> int",)"
      R"("examples":[{"inputs":[1],"output":2},{"inputs":[1],"output":3}],)"
      R"("timeout_ms":60000,"node_budget":2000}})"));
  Tally(C.roundTrip("not json at all"));
  Tally(C.roundTrip(R"({"id":1,"method":"frobnicate"})"));
  Tally(C.roundTrip(R"({"id":2,"method":"solve","params":{"task":"?"}})"));
  Tally(C.roundTrip(identityRequest("nd", "text")));
  Tally(C.roundTrip(
      R"({"id":3,"method":"reload","params":{"domain":"text"}})"));
  Tally(C.roundTrip(R"({"id":4,"method":"reload","params":)"
                    R"({"checkpoint":"/nonexistent/lib.ckpt"}})"));
  Tally(C.roundTrip(R"({"id":5,"method":"reload"})"));
  {
    // Exactly one byte over the limit: the server has read the whole
    // line when it answers, so closing cannot reset the answer away.
    TestClient Long(Srv->port());
    ASSERT_TRUE(Long.connected());
    Long.sendLine(std::string(SC.MaxLineBytes, 'x'));
    Tally(Long.recvLine());
  }

  // A runs, B waits in the queue, a third solve is overloaded; after
  // shutdown a fourth is shutting_down and A and B drain as timeouts.
  auto Occupancy = [&]() -> std::pair<long long, long long> {
    Json S = Probe.roundTrip(R"({"id":"p","method":"stats"})");
    return {statCount(*S.find("result"), "accepted"),
            statCount(*S.find("result"), "queue_depth")};
  };
  auto WaitFor = [&](long long Accepted, long long Depth) {
    for (int I = 0; I < 400; ++I) {
      if (Occupancy() == std::make_pair(Accepted, Depth))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  A.sendLine(slowRequest("a", 2000, "origami"));
  ASSERT_TRUE(WaitFor(3, 0)) << "A never reached the worker";
  B.sendLine(slowRequest("b", 2000, "origami"));
  ASSERT_TRUE(WaitFor(4, 1)) << "B never queued";
  Tally(C.roundTrip(slowRequest("c", 2000, "origami")));
  Srv->requestShutdown();
  Tally(C.roundTrip(slowRequest("d", 2000, "origami")));
  Tally(A.recvLine());
  Tally(B.recvLine());
  Srv->waitForShutdown();

  EXPECT_EQ(Codes, (std::map<std::string, int>{{"bad_request", 2},
                                               {"no_solution", 1},
                                               {"overloaded", 1},
                                               {"reload_failed", 1},
                                               {"reloaded", 1},
                                               {"shutting_down", 1},
                                               {"solved", 1},
                                               {"timeout", 2},
                                               {"unknown_domain", 2},
                                               {"unknown_method", 1},
                                               {"unknown_task", 1}}));
  Json Final = Srv->stats();
  long long Counted = 0;
  for (const char *Key :
       {"accepted", "rejected", "bad_request", "unknown_method",
        "unknown_domain", "unknown_task", "reloads", "failed_reloads"})
    Counted += statCount(Final, Key);
  EXPECT_EQ(Counted, Responses) << Final.dump();
  EXPECT_EQ(statCount(Final, "accepted"),
            statCount(Final, "solved") + statCount(Final, "no_solution") +
                statCount(Final, "timeout"));
  EXPECT_EQ(statCount(Final, "rejected"), 2);
  EXPECT_EQ(statCount(Final, "bad_request"), 2);
  EXPECT_EQ(statCount(Final, "unknown_domain"), 2);
  // The list solves all ran before the reload and the slow ones on
  // origami; the two rows sum to the totals.
  for (const char *Key :
       {"accepted", "rejected", "solved", "no_solution", "timeout"}) {
    EXPECT_EQ(epochCount(Final, "list", 1, Key) +
                  epochCount(Final, "origami", 1, Key),
              statCount(Final, Key))
        << Key;
  }
  EXPECT_EQ(epochCount(Final, "origami", 1, "timeout"), 2);
}

namespace {

/// One numeric field of /proc/self/status (Threads, VmSize in kB).
long procStatus(const std::string &Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Key.size() + 1, Key + ":") == 0)
      return std::stol(Line.substr(Key.size() + 1));
  return -1;
}

} // namespace

TEST(ServeServerTest, ClosedConnectionsReleaseTheirReaders) {
  // Each connection gets a reader thread; it must be joined once the
  // connection closes, not at shutdown, or every past connection keeps
  // its stack mapped.
  ServiceRegistry Reg;
  ASSERT_TRUE(Reg.install(makeListService()));
  std::string Err;
  std::unique_ptr<Server> Srv = Server::start(Reg, ServerConfig(), &Err);
  ASSERT_TRUE(Srv) << Err;

  const long ThreadsBefore = procStatus("Threads");
  const long VmBeforeKb = procStatus("VmSize");
  ASSERT_GT(ThreadsBefore, 0);
  for (int I = 0; I < 2000; ++I) {
    TestClient C(Srv->port());
    ASSERT_TRUE(C.connected()) << "connection " << I;
    Json Health = C.roundTrip(R"({"id":"h","method":"health"})");
    ASSERT_TRUE(Health.find("ok")) << "connection " << I;
  }
  EXPECT_LE(procStatus("Threads"), ThreadsBefore + 4);
  // A finished but unjoined reader leaves Threads yet keeps its stack
  // mapped: 2000 of them would add ~16 GB of VmSize.
  EXPECT_LT(procStatus("VmSize") - VmBeforeKb, 512L * 1024);
}
