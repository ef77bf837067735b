// Unit tests for the worker pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit({}), InvalidArgument);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  // Write-to-own-slot results must be identical for 1 and 8 threads.
  const std::size_t n = 500;
  std::vector<double> a(n), b(n);
  {
    ThreadPool pool(1);
    parallel_for(pool, n, [&](std::size_t i) {
      a[i] = static_cast<double>(i) * 1.5;
    });
  }
  {
    ThreadPool pool(8);
    parallel_for(pool, n, [&](std::size_t i) {
      b[i] = static_cast<double>(i) * 1.5;
    });
  }
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, MoreItemsThanChunks) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  parallel_for(pool, 10000, [&](std::size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 10000ull * 9999ull / 2ull);
}

TEST(ParallelFor, RethrowsLowestThrowingIndexAndStaysUsable) {
  // Indices 5, 17 and 300 throw, 5 after a delay (so a higher thrower
  // usually finishes first): the caller always sees index 5's exception,
  // every index below it has run, and the pool runs the next loop.
  ThreadPool pool(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> ran(400);
    try {
      parallel_for(pool, ran.size(), [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 5) std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (i == 5 || i == 17 || i == 300) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 5");
    }
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
    for (const auto& r : ran) EXPECT_LE(r.load(), 1);
  }
  std::atomic<std::size_t> total{0};
  parallel_for(pool, 1000, [&](std::size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 1000u * 999u / 2u);

  // One claimer: nothing past the throwing index is claimed.
  ThreadPool one(1);
  std::vector<int> ran(10, 0);
  EXPECT_THROW(parallel_for(one, ran.size(),
                            [&](std::size_t i) {
                              ran[i] = 1;
                              if (i == 3) throw std::runtime_error("3");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}));
}

TEST(ParallelFor, NoIndexIsClaimedAfterAThrow) {
  // Index 0 throws while index 1 is running on the other claimer; once
  // index 1 returns (well after the throw), that claimer finds nothing
  // left to claim.
  ThreadPool pool(2);
  std::atomic<bool> started1{false}, throwing{false};
  std::atomic<int> claimed_after{0};
  EXPECT_THROW(
      parallel_for(pool, 100,
                   [&](std::size_t i) {
                     if (i == 0) {
                       while (!started1.load()) std::this_thread::yield();
                       throwing.store(true);
                       throw std::runtime_error("0");
                     }
                     if (i == 1) {
                       started1.store(true);
                       while (!throwing.load()) std::this_thread::yield();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(200));
                       return;
                     }
                     claimed_after.fetch_add(1);
                   }),
      std::runtime_error);
  EXPECT_EQ(claimed_after.load(), 0);
}

TEST(ParallelFor, SlowIndexDoesNotHoldBackOthers) {
  // Index 0 waits until every other index has run. With indices claimed
  // one at a time the other workers get there; a static split into blocks
  // would park index 0's block-mates behind it until the deadline.
  ThreadPool pool(3);
  std::atomic<std::size_t> others{0};
  bool others_ran_first = false;
  parallel_for(pool, 200, [&](std::size_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (others.load() < 199 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_ran_first = others.load() == 199;
  });
  EXPECT_TRUE(others_ran_first);
}

TEST(ParallelFor, SingleIndexAndSingleThread) {
  ThreadPool one(1);
  std::vector<int> hits(37, 0);
  parallel_for(one, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
  ThreadPool four(4);
  int calls = 0;
  parallel_for(four, 1,
               [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedRunTasksThrows) {
  // A worker that waited on its own pool would count its own task among
  // the busy ones and wait forever. The nested call must throw instead,
  // promptly, and leave the pool usable. A hang is reported and ends the
  // process: a pool whose worker is stuck cannot be destroyed.
  ThreadPool pool(2);
  auto nested = std::async(std::launch::async, [&] {
    parallel_for(pool, 1, [&](std::size_t) {
      parallel_for(pool, 2, [](std::size_t) {});
    });
  });
  if (nested.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "nested parallel_for on the same pool hung\n");
    std::_Exit(1);
  }
  EXPECT_THROW(nested.get(), InvalidArgument);

  // run_tasks and wait_idle called from a task of the pool throw too.
  std::atomic<int> threw{0};
  pool.run_tasks(2, [&] {
    try {
      pool.run_tasks(1, [] {});
    } catch (const InvalidArgument&) {
      threw.fetch_add(1);
    }
    try {
      pool.wait_idle();
    } catch (const InvalidArgument&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 4);

  // A different pool nests fine, and this one still runs work.
  ThreadPool inner(2);
  std::vector<int> hits(64, 0);
  parallel_for(pool, 2, [&](std::size_t b) {
    parallel_for(inner, 32, [&](std::size_t i) { hits[b * 32 + i] += 1; });
  });
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 2; }));
}

}  // namespace
}  // namespace khop
