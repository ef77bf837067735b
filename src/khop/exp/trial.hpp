/// \file trial.hpp
/// Parallel Monte-Carlo trial runner with the paper's adaptive stopping rule.
///
/// Trials are independent and deterministic: trial i draws from the master
/// rng's spawned stream i, so the aggregate is identical for any thread
/// count or scheduling.
///
/// Contract of run_trials:
///  * The stopping rule is evaluated on every metric at batch ends: the
///    first batch end at or past min_trials (min(max_trials, a multiple of
///    batch)), then every batch trials after it, capped at max_trials.
///    Every trial before the first check runs in one parallel_for, so a
///    policy with min_trials == max_trials pays one pool barrier in all.
///    trials_run and converged are those of checking after every batch of
///    batch trials from trial 0: no check before min_trials can stop.
///  * Metrics are added in trial-index order after each parallel_for, so
///    summaries are bit-identical at any thread count.
///  * A trial that throws does not terminate the process: run_trials
///    rethrows, on the calling thread, the exception of the lowest throwing
///    trial index (parallel_for's rule), and the pool stays usable.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "khop/common/rng.hpp"
#include "khop/exp/stats.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

struct TrialPolicy {
  std::size_t min_trials = 30;
  std::size_t max_trials = 100;  ///< paper: "repeated 100 times or until the
                                 ///< confidence interval is sufficiently small"
  double rel_halfwidth = 0.01;   ///< +-1%
  std::size_t batch = 25;
};

/// One trial: given its private rng, produce one value per metric. Must be
/// thread-safe w.r.t. shared state (treat captures as read-only). It also
/// receives the executing worker's tls_workspace(), reused across every
/// trial that worker runs. The workspace affects performance only - trial
/// results must be a pure function of (rng, trial), which keeps summaries
/// bit-identical across thread counts and schedulings. The pool is busy
/// running the trials: a trial that hands it to a stage gets
/// InvalidArgument (ThreadPool::run_tasks), so stages inside a trial run on
/// the workspace.
using TrialFn =
    std::function<std::vector<double>(Rng&, std::size_t trial, Workspace&)>;

struct TrialSummary {
  std::vector<RunningStats> metrics;
  std::size_t trials_run = 0;
  bool converged = false;  ///< stopped by CI rule rather than the cap
};

/// Runs \p fn under \p policy using \p pool. \p metric_count is the arity of
/// the metric vector fn returns (checked). Each pool worker's trials share
/// its tls_workspace(), so the per-trial pipeline hot paths run
/// allocation-free.
TrialSummary run_trials(ThreadPool& pool, const TrialPolicy& policy,
                        const Rng& master, std::size_t metric_count,
                        const TrialFn& fn);

}  // namespace khop
