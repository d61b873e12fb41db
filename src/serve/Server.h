//===- serve/Server.h - TCP front end for the synthesis service -----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network layer of dc_serve: a line-delimited-JSON TCP server over a
/// ServiceRegistry of loaded Service epochs. Thread architecture
/// (DESIGN.md §9):
///
///   acceptor ──► one reader thread per connection ──► BoundedQueue
///                                                          │
///                 worker pool ◄── dispatch ◄── collector ◄─┘
///
/// The acceptor joins each reader once its connection closes. The
/// collector takes a request off the admission queue only when a
/// worker is free to run it, so everything still waiting counts against
/// the queue bound. With ServerConfig::MaxBatch 1 it forwards each
/// request at once; above 1 it gathers up to MaxBatch solve requests
/// within a BatchLingerMicros window, groups them by their admission
/// (domain, epoch) snapshot — a batch therefore never mixes epochs —
/// runs one RecognitionModel::predictBatch per group, and forwards each
/// request with its precomputed guide through a dispatch queue. Since
/// predictBatch rows are bit-identical to predict(), batching changes
/// no answer; it only amortizes inference (DESIGN.md §9).
///
/// Readers parse and validate requests and answer health/stats inline
/// (those never block on search capacity); solve requests resolve their
/// domain to a registry snapshot and are stamped with both that epoch
/// and their wall-clock deadline at *admission*, then enqueued — a
/// reload that publishes a new epoch never perturbs admitted work.
/// Admission control is the queue bound: a full queue rejects
/// immediately with `overloaded` — saturation surfaces as a structured
/// error the client can back off on, not as unbounded queueing delay.
/// Workers re-check the deadline at dequeue (a request that spent its
/// budget queued gets `timeout` without searching) and pass the
/// remainder into enumeration.
///
/// `reload` requests run on the requesting connection's reader thread:
/// checkpoint + model I/O and validation never touch the acceptor, the
/// workers, or any other connection, and a failed load publishes
/// nothing (`reload_failed`; the old epoch keeps serving).
///
/// Graceful shutdown (requestShutdown, or shutdown() directly): stop
/// accepting connections, reject new solves with `shutting_down`, let
/// workers drain every admitted request, then close connections and
/// join all threads. Admitted work is never dropped.
///
/// Responses may interleave on a connection (two pipelined solves finish
/// out of order); the per-connection write lock keeps each response line
/// atomic and clients match responses to requests by id.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_SERVER_H
#define DC_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/RequestQueue.h"
#include "serve/Service.h"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dc::serve {

/// Network/runtime knobs (the rest of the dc_serve command line).
struct ServerConfig {
  /// Port to bind; 0 asks the kernel for an ephemeral port (tests/CI —
  /// read the chosen port from port()).
  int Port = 0;
  std::string BindAddress = "127.0.0.1";
  int Workers = 2;          ///< search worker threads
  int QueueCapacity = 16;   ///< admission bound (beyond in-flight work)
  long DefaultTimeoutMs = 5000; ///< per-request deadline when unspecified
  /// Cross-request micro-batching (DESIGN.md §9): the collector
  /// gathers up to MaxBatch solve requests inside a BatchLingerMicros
  /// window, groups them by (domain, epoch) snapshot, and runs one
  /// predictBatch per group so recognition inference amortizes across
  /// queued requests. 1 (the default) forwards each request at once,
  /// with no linger and no precomputed guide.
  int MaxBatch = 1;
  long BatchLingerMicros = 2000; ///< max extra wait for batch-mates
  /// Reject lines longer than this before parsing (a malformed or
  /// malicious client cannot balloon reader memory).
  size_t MaxLineBytes = 1 << 20;
};

class Server {
public:
  /// Binds and starts all threads. Null + \p ErrorOut on bind failure
  /// or an empty registry. \p Registry must outlive the server; it may
  /// keep receiving install()/reload() calls while the server runs
  /// (that is the hot-reload path).
  static std::unique_ptr<Server> start(ServiceRegistry &Registry,
                                       const ServerConfig &Config,
                                       std::string *ErrorOut = nullptr);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The bound port (the kernel's choice when Config.Port was 0).
  int port() const { return BoundPort; }

  /// Async-signal-friendly shutdown trigger: flips an atomic and nudges
  /// the acceptor; safe from any thread, returns immediately. The
  /// blocking teardown runs in waitForShutdown()/the destructor — never
  /// inside a reader or signal context, which would self-deadlock.
  void requestShutdown();

  /// Blocks until a shutdown request arrives (requestShutdown or a
  /// client-triggered fatal error), then performs the full graceful
  /// teardown: drain, join, close. Idempotent.
  void waitForShutdown();

  /// True once requestShutdown has been called.
  bool shuttingDown() const {
    return ShutdownRequested.load(std::memory_order_acquire);
  }

  /// The body of the `stats` endpoint. Outcome counts come from one
  /// store: per-(domain, epoch) rows of accepted, rejected, solved,
  /// no_solution and timeout (the top-level totals are their sums), plus
  /// server-level counts of events that never reach an epoch.
  Json stats() const;

  /// Folds a reload performed outside the protocol (the SIGHUP path in
  /// dc_serve, which calls ServiceRegistry::reload directly) into the
  /// reloads/failed_reloads counts so `stats` reflects every swap.
  void noteReload(bool Success) {
    count(Success ? &ServerCounts::Reloads : &ServerCounts::FailedReloads);
  }

private:
  struct Connection;
  struct Pending;

  /// Outcomes of the solves admitted against one (domain, epoch)
  /// snapshot. Rejected covers overloaded and shutting_down.
  struct EpochRow {
    long Accepted = 0, Rejected = 0, Solved = 0, NoSolution = 0,
         Timeout = 0;
  };
  /// Events that have no epoch.
  struct ServerCounts {
    long BadRequest = 0, UnknownMethod = 0, UnknownDomain = 0,
         UnknownTask = 0, Reloads = 0, FailedReloads = 0,
         BatchedPredicts = 0;
  };
  /// A live connection and the reader thread serving it.
  struct ConnectionEntry {
    std::shared_ptr<Connection> Conn;
    std::thread Reader;
  };

  Server() = default;

  void acceptLoop();
  /// Joins and forgets the readers whose connections have closed.
  void pruneConnections();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop();
  /// Moves admitted requests to the workers: one at a time with
  /// MaxBatch 1, else in linger-bounded batches with batched
  /// recognition predictions attached.
  void collectorLoop();
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line);
  void handleSolve(const std::shared_ptr<Connection> &Conn, const Json &Id,
                   const Json &Params);
  void handleReload(const std::shared_ptr<Connection> &Conn, const Json &Id,
                    const Json &Params);
  void count(const Service &Svc, long EpochRow::*Field);
  void count(long ServerCounts::*Field);
  void teardown();

  ServiceRegistry *Registry = nullptr;
  ServerConfig Config;
  int ListenFd = -1;
  int BoundPort = 0;
  /// Self-pipe: requestShutdown writes one byte; the acceptor polls the
  /// read end alongside the listen socket and wakes immediately.
  int WakePipe[2] = {-1, -1};

  std::unique_ptr<BoundedQueue<Pending>> Queue;
  /// Second-stage queue between the collector and the workers.
  std::unique_ptr<BoundedQueue<Pending>> Dispatch;
  std::thread Acceptor;
  std::thread Collector;
  std::vector<std::thread> Workers;
  mutable std::mutex ConnectionsMutex;
  std::vector<ConnectionEntry> Connections; ///< guarded by ConnectionsMutex

  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> TornDown{false};
  std::mutex TeardownMutex;

  /// The outcome-counter store. Epoch rows are ordered so `stats`
  /// renders epochs in ascending order; reloads never zero a row.
  mutable std::mutex CountsMutex;
  std::map<std::pair<std::string, unsigned long>, EpochRow> EpochRows;
  ServerCounts Counts;
};

} // namespace dc::serve

#endif // DC_SERVE_SERVER_H
