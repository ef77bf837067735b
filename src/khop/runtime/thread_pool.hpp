/// \file thread_pool.hpp
/// Fixed-size worker pool used by the Monte-Carlo experiment harness.
///
/// Design notes (per the C++ Core Guidelines concurrency rules): workers are
/// std::jthread so destruction joins automatically; tasks capture by value or
/// own their state (no dangling references across threads); completion is
/// tracked with a counter + condition variable rather than futures to keep
/// the hot path allocation-light.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "khop/runtime/exec.hpp"

namespace khop {

class ThreadPool {
 public:
  /// \p num_threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw; wrap user code appropriately.
  void submit(std::function<void()> task);

  /// Runs body() as \p tasks pool tasks, blocking until all have finished.
  /// The tasks are enqueued under one lock acquisition and published with a
  /// single notify_all: per-task submit pays one lock/notify round trip per
  /// task, which dominated small parallel phases (the n ~ 8000 engine
  /// break-even). Throws InvalidArgument, before enqueuing anything, when
  /// called from one of this pool's own workers: the wait would count the
  /// calling task and never end.
  void run_tasks(std::size_t tasks, const std::function<void()>& body);

  /// Blocks until every submitted task has finished. Throws InvalidArgument
  /// when called from one of this pool's own workers.
  void wait_idle();

 private:
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + running
  bool stopping_ = false;
  std::vector<std::jthread> workers_;

  void worker_loop();
};

/// Runs fn(i) for every i in [0, count) across \p pool, blocking until
/// done. min(count, num_threads) claimer tasks each take the next index
/// from one shared atomic counter until none is left, so a slow index
/// holds up only its own claimer and no worker idles while work remains.
///
/// Contract:
///  * Index assignment is not deterministic: which worker runs an index,
///    and in what order, depends on scheduling. Results must not depend on
///    it; callers write to disjoint per-index slots.
///  * Exceptions: every index below a throwing one has been claimed before
///    it and runs to completion; once an index throws, no further index is
///    claimed. After every claimer has finished, the exception of the
///    LOWEST throwing index is rethrown on the calling thread - the one a
///    serial ascending loop would raise, whatever the scheduling. Which
///    indices above it ran is not specified. The pool stays usable.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// The number of blocks parallel_blocks splits [0, count) into on \p pool:
/// four per worker, at least one, at most count.
inline std::size_t block_count(const ThreadPool& pool, std::size_t count) {
  return std::max<std::size_t>(1, std::min(count, pool.num_threads() * 4));
}

/// Runs body(b, lo, hi) on \p pool for every block b of [0, count), block
/// b of B = block_count(pool, count) being [count*b/B, count*(b+1)/B).
/// Per-block outputs indexed by b and combined in block order give what one
/// ascending pass over [0, count) gives, at any thread count. Exceptions as
/// in parallel_for: a throw ends its block, and the lowest block's
/// exception is rethrown.
template <typename Body>
void parallel_blocks(ThreadPool& pool, std::size_t count, Body&& body) {
  const std::size_t blocks = block_count(pool, count);
  parallel_for(pool, blocks, [&](std::size_t b) {
    body(b, count * b / blocks, count * (b + 1) / blocks);
  });
}

/// The number of blocks exec_blocks splits [0, count) into under \p exec:
/// one without a pool, else block_count(*exec.pool, count).
inline std::size_t block_count(const Exec& exec, std::size_t count) {
  return exec.pool == nullptr ? 1 : block_count(*exec.pool, count);
}

/// Runs body(b, lo, hi, ws) for every block b of [0, count) under \p exec:
/// without a pool as the one block body(0, 0, count, *exec.ws) on the
/// calling thread, else as parallel_blocks on exec.pool, each worker
/// passing its own tls_workspace(). A stage written against it has no
/// separate serial loop: its serial run is its pooled run with one block,
/// and per-block outputs combined in block order give the same result
/// either way. Exceptions as in parallel_blocks.
template <typename Body>
void exec_blocks(const Exec& exec, std::size_t count, Body&& body) {
  if (exec.pool == nullptr) {
    body(std::size_t{0}, std::size_t{0}, count, *exec.ws);
    return;
  }
  parallel_blocks(*exec.pool, count,
                  [&](std::size_t b, std::size_t lo, std::size_t hi) {
                    body(b, lo, hi, tls_workspace());
                  });
}

/// Runs fill(lo, hi, ws, out) over the blocks of exec_blocks, each block
/// appending to its own vector, and returns the blocks' vectors
/// concatenated in block order — for an order-preserving fill, the
/// sequence one fill(0, count, ws, out) call appends, at any thread count.
/// Without a pool the one block fills the returned vector itself.
/// Exceptions as in exec_blocks.
template <typename T, typename Fill>
std::vector<T> exec_concat(const Exec& exec, std::size_t count, Fill&& fill) {
  if (exec.pool == nullptr) {
    std::vector<T> out;
    fill(std::size_t{0}, count, *exec.ws, out);
    return out;
  }
  std::vector<std::vector<T>> parts(block_count(exec, count));
  exec_blocks(exec, count,
              [&](std::size_t b, std::size_t lo, std::size_t hi,
                  Workspace& ws) { fill(lo, hi, ws, parts[b]); });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace khop
