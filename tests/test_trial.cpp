// Unit tests for the parallel Monte-Carlo trial runner.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "khop/common/error.hpp"
#include "khop/exp/trial.hpp"

namespace khop {
namespace {

TEST(TrialRunner, RunsMinTrialsAtLeast) {
  ThreadPool pool(4);
  TrialPolicy policy;
  policy.min_trials = 40;
  policy.max_trials = 100;
  std::atomic<std::size_t> calls{0};
  const TrialSummary s = run_trials(
      pool, policy, Rng(1), 1,
      [&](Rng&, std::size_t, Workspace&) -> std::vector<double> {
        calls.fetch_add(1);
        return {5.0};  // constant metric converges immediately
      });
  EXPECT_GE(s.trials_run, policy.min_trials);
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(calls.load(), s.trials_run);
  EXPECT_DOUBLE_EQ(s.metrics[0].mean(), 5.0);
}

TEST(TrialRunner, StopsAtCapWithoutConvergence) {
  ThreadPool pool(4);
  TrialPolicy policy;
  policy.min_trials = 10;
  policy.max_trials = 50;
  policy.rel_halfwidth = 1e-9;  // unreachable tightness
  const TrialSummary s = run_trials(
      pool, policy, Rng(2), 1,
      [](Rng& rng, std::size_t, Workspace&) -> std::vector<double> {
        return {rng.uniform(0.0, 100.0)};
      });
  EXPECT_EQ(s.trials_run, 50u);
  EXPECT_FALSE(s.converged);
}

TEST(TrialRunner, DeterministicAcrossThreadCounts) {
  TrialPolicy policy;
  policy.min_trials = 60;
  policy.max_trials = 60;
  const auto fn = [](Rng& rng, std::size_t, Workspace&) -> std::vector<double> {
    return {rng.uniform(), rng.uniform(0.0, 10.0)};
  };
  ThreadPool p1(1), p8(8);
  const TrialSummary a = run_trials(p1, policy, Rng(33), 2, fn);
  const TrialSummary b = run_trials(p8, policy, Rng(33), 2, fn);
  EXPECT_DOUBLE_EQ(a.metrics[0].mean(), b.metrics[0].mean());
  EXPECT_DOUBLE_EQ(a.metrics[0].variance(), b.metrics[0].variance());
  EXPECT_DOUBLE_EQ(a.metrics[1].mean(), b.metrics[1].mean());
}

TEST(TrialRunner, TrialIndexSeedsAreIndependent) {
  // Trial i must receive the spawn(i) stream: record first draw per trial.
  ThreadPool pool(4);
  TrialPolicy policy;
  policy.min_trials = 16;
  policy.max_trials = 16;
  std::vector<double> first(16, -1.0);
  run_trials(pool, policy, Rng(7), 1,
             [&](Rng& rng, std::size_t trial,
                 Workspace&) -> std::vector<double> {
               first[trial] = rng.uniform();
               return {0.0};
             });
  const Rng master(7);
  for (std::size_t i = 0; i < 16; ++i) {
    Rng expect = master.spawn(i);
    EXPECT_DOUBLE_EQ(first[i], expect.uniform()) << "trial " << i;
  }
}

TEST(TrialRunner, ChecksMetricArity) {
  ThreadPool pool(2);
  TrialPolicy policy;
  policy.min_trials = 2;
  policy.max_trials = 4;
  EXPECT_THROW(
      run_trials(pool, policy, Rng(1), 2,
                 [](Rng&, std::size_t, Workspace&) -> std::vector<double> {
                   return {1.0};  // wrong arity
                 }),
      InvalidArgument);
}

TEST(TrialRunner, RejectsBadPolicy) {
  ThreadPool pool(2);
  TrialPolicy policy;
  policy.min_trials = 10;
  policy.max_trials = 5;
  const auto fn = [](Rng&, std::size_t, Workspace&) -> std::vector<double> {
    return {0.0};
  };
  EXPECT_THROW(run_trials(pool, policy, Rng(1), 1, fn), InvalidArgument);
  policy.max_trials = 20;
  policy.batch = 0;
  EXPECT_THROW(run_trials(pool, policy, Rng(1), 1, fn), InvalidArgument);
  EXPECT_THROW(run_trials(pool, TrialPolicy{}, Rng(1), 0, fn),
               InvalidArgument);
}

TEST(TrialRunner, ConvergesEarlyOnLowVariance) {
  ThreadPool pool(4);
  TrialPolicy policy;
  policy.min_trials = 30;
  policy.max_trials = 1000;
  policy.rel_halfwidth = 0.05;
  const TrialSummary s = run_trials(
      pool, policy, Rng(5), 1,
      [](Rng& rng, std::size_t, Workspace&) -> std::vector<double> {
        return {100.0 + rng.uniform(-1.0, 1.0)};
      });
  EXPECT_TRUE(s.converged);
  EXPECT_LT(s.trials_run, 1000u);
}

TEST(TrialRunner, ThrowingTrialRethrowsLowestIndex) {
  // Trials 13 and 40 throw; the caller sees trial 13's exception (what a
  // serial ascending loop raises first), and the pool keeps working.
  ThreadPool pool(4);
  TrialPolicy policy;
  policy.min_trials = 50;
  policy.max_trials = 50;
  for (int rep = 0; rep < 20; ++rep) {
    try {
      run_trials(pool, policy, Rng(3), 1,
                 [](Rng&, std::size_t trial,
                    Workspace&) -> std::vector<double> {
                   if (trial == 13 || trial == 40) {
                     throw InvalidArgument("trial " + std::to_string(trial));
                   }
                   return {1.0};
                 });
      ADD_FAILURE() << "no exception";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("trial 13"), std::string::npos)
          << e.what();
    }
  }
  const TrialSummary after = run_trials(
      pool, policy, Rng(3), 1,
      [](Rng&, std::size_t, Workspace&) -> std::vector<double> {
        return {2.0};
      });
  EXPECT_EQ(after.trials_run, 50u);
  EXPECT_DOUBLE_EQ(after.metrics[0].mean(), 2.0);
}

/// The batch loop run_trials replaced: the stopping rule checked after
/// every batch of policy.batch trials from trial 0, serially.
TrialSummary reference_batch_loop(const TrialPolicy& policy, const Rng& master,
                                  std::size_t metric_count, const TrialFn& fn) {
  TrialSummary summary;
  summary.metrics.assign(metric_count, RunningStats{});
  Workspace ws;
  std::size_t next = 0;
  while (next < policy.max_trials) {
    const std::size_t end = std::min(policy.max_trials, next + policy.batch);
    for (std::size_t trial = next; trial < end; ++trial) {
      Rng rng = master.spawn(trial);
      const std::vector<double> m = fn(rng, trial, ws);
      for (std::size_t i = 0; i < metric_count; ++i) {
        summary.metrics[i].add(m[i]);
      }
    }
    next = end;
    summary.trials_run = next;
    if (next >= policy.min_trials &&
        std::all_of(summary.metrics.begin(), summary.metrics.end(),
                    [&](const RunningStats& s) {
                      return ci_within_relative(s, policy.rel_halfwidth);
                    })) {
      summary.converged = true;
      break;
    }
  }
  return summary;
}

void expect_same_summary(const TrialSummary& got, const TrialSummary& want) {
  EXPECT_EQ(got.trials_run, want.trials_run);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.metrics.size(), want.metrics.size());
  for (std::size_t m = 0; m < got.metrics.size(); ++m) {
    EXPECT_EQ(got.metrics[m].count(), want.metrics[m].count());
    // Bit-identical, not merely close: same values added in the same order.
    EXPECT_EQ(got.metrics[m].mean(), want.metrics[m].mean());
    EXPECT_EQ(got.metrics[m].variance(), want.metrics[m].variance());
  }
}

TEST(TrialRunner, StopPointsMatchBatchLoopReference) {
  // Noisy metrics whose CI tightens at different trial counts: some
  // policies converge at the first check, some after a few batches, some
  // never. trials_run, converged and the summaries must be the old loop's.
  ThreadPool pool(4);
  const TrialFn fn = [](Rng& rng, std::size_t,
                        Workspace&) -> std::vector<double> {
    return {10.0 + rng.uniform(-1.0, 1.0), 50.0 + rng.uniform(-20.0, 20.0)};
  };
  std::size_t converged = 0, capped = 0, converged_late = 0;
  for (const std::size_t min : {0, 1, 24, 25, 26, 100}) {
    for (const std::size_t batch : {1, 7, 25}) {
      for (const std::size_t max : {min, min + 13, std::size_t{130}}) {
        if (max < min) continue;
        for (const double rel : {1e-9, 0.02, 0.05, 0.2}) {
          TrialPolicy policy;
          policy.min_trials = min;
          policy.max_trials = max;
          policy.batch = batch;
          policy.rel_halfwidth = rel;
          SCOPED_TRACE(testing::Message() << "min=" << min << " max=" << max
                                          << " batch=" << batch
                                          << " rel=" << rel);
          const TrialSummary want = reference_batch_loop(policy, Rng(9), 2, fn);
          expect_same_summary(run_trials(pool, policy, Rng(9), 2, fn), want);
          if (want.converged) {
            ++converged;
            if (want.trials_run > std::max(min, batch)) ++converged_late;
          } else if (want.trials_run == max) {
            ++capped;
          }
        }
      }
    }
  }
  EXPECT_GT(converged, 0u);
  EXPECT_GT(converged_late, 0u);
  EXPECT_GT(capped, 0u);
}

TEST(TrialRunner, SkewedCostSummariesBitIdenticalAcrossThreadCounts) {
  // One trial in eight is ~50x slower, so workers finish out of order;
  // the summary must not notice.
  TrialPolicy policy;
  policy.min_trials = 40;
  policy.max_trials = 120;
  policy.batch = 16;
  policy.rel_halfwidth = 0.01;
  const TrialFn fn = [](Rng& rng, std::size_t trial,
                        Workspace&) -> std::vector<double> {
    if (trial % 8 == 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return {rng.uniform(0.0, 10.0), rng.uniform(2.0, 4.0) * rng.uniform()};
  };
  const TrialSummary want = reference_batch_loop(policy, Rng(21), 2, fn);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(testing::Message() << "threads=" << pool.num_threads());
    expect_same_summary(run_trials(pool, policy, Rng(21), 2, fn), want);
  }
}

}  // namespace
}  // namespace khop
