#include "khop/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "khop/common/assert.hpp"
#include "khop/obs/trace.hpp"

namespace khop {

namespace {

/// The pool whose worker_loop runs on this thread, if any.
thread_local const ThreadPool* tls_owner = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  // jthread destructors join.
}

void ThreadPool::submit(std::function<void()> task) {
  KHOP_REQUIRE(static_cast<bool>(task), "empty task");
  {
    std::scoped_lock lock(mu_);
    KHOP_REQUIRE(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_work_.notify_one();
}

void ThreadPool::run_tasks(std::size_t tasks,
                           const std::function<void()>& body) {
  KHOP_REQUIRE(static_cast<bool>(body), "empty task body");
  KHOP_REQUIRE(tls_owner != this,
               "run_tasks called from a worker of the same pool");
  if (tasks == 0) return;
  {
    std::scoped_lock lock(mu_);
    KHOP_REQUIRE(!stopping_, "submit after shutdown");
    for (std::size_t t = 0; t < tasks; ++t) {
      // &body stays valid: every task completes before wait_idle returns.
      queue_.push_back([&body] { body(); });
      ++in_flight_;
    }
  }
  cv_work_.notify_all();
  wait_idle();
}

void ThreadPool::wait_idle() {
  KHOP_REQUIRE(tls_owner != this,
               "wait_idle called from a worker of the same pool");
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  tls_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      // One span per dequeued task on the worker's own trace row; the
      // submit/merge work stays attributed to the caller's row.
      obs::Span task_span("pool/task");
      task();
    }
    {
      std::scoped_lock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t first_index = count;
  std::exception_ptr first;
  pool.run_tasks(std::min(count, pool.num_threads()), [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        // Every lower index was claimed before i and still runs, so the
        // lowest thrower is found whatever the scheduling; nothing above
        // is claimed from here on.
        next.store(count, std::memory_order_relaxed);
        std::scoped_lock lock(mu);
        if (i < first_index) {
          first_index = i;
          first = std::current_exception();
        }
        return;
      }
    }
  });
  if (first) std::rethrow_exception(first);
}

}  // namespace khop
