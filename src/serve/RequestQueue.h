//===- serve/RequestQueue.h - Bounded MPMC queue with admission control ---===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's backpressure primitive: a bounded multi-producer multi-
/// consumer queue. Producers (connection readers) never block — tryPush
/// fails immediately when the queue is full, which the server turns into
/// a structured `overloaded` rejection so clients learn about saturation
/// instead of stacking up unbounded latency. Consumers (workers) block
/// in pop() until an item arrives or the queue is closed.
///
/// close() is the first step of graceful shutdown: producers start
/// failing (rejected as `shutting_down`), while consumers continue to
/// drain items already admitted — an accepted request is never dropped.
/// pop() returns nullopt only when the queue is both closed and empty,
/// which is each worker's signal to exit.
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_REQUESTQUEUE_H
#define DC_SERVE_REQUESTQUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace dc::serve {

/// Why a tryPush was (not) admitted, decided under the queue lock. The
/// distinction matters to clients: Full means "back off and retry"
/// (`overloaded`), Closed means "this server is going away"
/// (`shutting_down`). A bare bool + follow-up closed() check would race
/// with a concurrent close() and misreport one as the other.
enum class PushResult { Ok, Full, Closed };

template <typename T> class BoundedQueue {
public:
  explicit BoundedQueue(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// Non-blocking admission. The returned reason is consistent with the
  /// queue state at the moment of the attempt (single lock acquisition).
  [[nodiscard]] PushResult tryPush(T Item) {
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Closed)
        return PushResult::Closed;
      if (Items.size() >= Capacity)
        return PushResult::Full;
      Items.push_back(std::move(Item));
    }
    NotEmpty.notify_one();
    return PushResult::Ok;
  }

  /// Blocks until an item is available or the queue is closed and fully
  /// drained (then nullopt — the consumer's exit signal).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> Lock(M);
    ++Waiting;
    if (Waiting > Items.size())
      Idle.notify_all();
    NotEmpty.wait(Lock, [&] { return !Items.empty() || Closed; });
    --Waiting;
    if (Items.empty())
      return std::nullopt;
    T Item = std::move(Items.front());
    Items.pop_front();
    Lock.unlock();
    NotFull.notify_one();
    return Item;
  }

  /// pop() with a deadline: nullopt on timeout as well as on
  /// closed-and-drained. The micro-batching collector uses this to
  /// gather requests inside a linger window without ever waiting past
  /// it; a close() during the wait still drains remaining items first.
  std::optional<T> popUntil(std::chrono::steady_clock::time_point Deadline) {
    std::unique_lock<std::mutex> Lock(M);
    if (!NotEmpty.wait_until(Lock, Deadline,
                             [&] { return !Items.empty() || Closed; }))
      return std::nullopt; // linger window expired empty-handed
    if (Items.empty())
      return std::nullopt; // closed and fully drained
    T Item = std::move(Items.front());
    Items.pop_front();
    Lock.unlock();
    NotFull.notify_one();
    return Item;
  }

  /// Blocking push for trusted internal producers (the collector feeding
  /// the dispatch queue): waits for space instead of failing, so an
  /// admitted request is never dropped between queues. Returns false
  /// only if the queue was closed first.
  bool pushWait(T Item) {
    std::unique_lock<std::mutex> Lock(M);
    NotFull.wait(Lock, [&] { return Items.size() < Capacity || Closed; });
    if (Closed)
      return false;
    Items.push_back(std::move(Item));
    Lock.unlock();
    NotEmpty.notify_one();
    return true;
  }

  /// Blocks until some consumer waits in pop() with no item left for it,
  /// or the queue is closed. The collector calls this on the dispatch
  /// queue before taking the next admission, so requests stay in the
  /// admission queue — and count against its bound — while every worker
  /// is busy.
  void waitForIdleConsumer() {
    std::unique_lock<std::mutex> Lock(M);
    Idle.wait(Lock, [&] { return Waiting > Items.size() || Closed; });
  }

  /// Stops admission; consumers drain the remainder and then see nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
    Idle.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(M);
    return Closed;
  }

  /// Instantaneous occupancy (metrics; racy by nature, exact under lock).
  size_t depth() const {
    std::lock_guard<std::mutex> Lock(M);
    return Items.size();
  }

  size_t capacity() const { return Capacity; }

private:
  const size_t Capacity;
  mutable std::mutex M;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull; ///< pushWait's wakeup (pops signal it)
  std::condition_variable Idle;    ///< waitForIdleConsumer's wakeup
  std::deque<T> Items;
  size_t Waiting = 0; ///< consumers inside pop()
  bool Closed = false;
};

} // namespace dc::serve

#endif // DC_SERVE_REQUESTQUEUE_H
