#include "khop/exp/trial.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/obs/trace.hpp"

namespace khop {

TrialSummary run_trials(ThreadPool& pool, const TrialPolicy& policy,
                        const Rng& master, std::size_t metric_count,
                        const TrialFn& fn) {
  KHOP_REQUIRE(metric_count > 0, "need at least one metric");
  KHOP_REQUIRE(policy.max_trials >= policy.min_trials,
               "max_trials < min_trials");
  KHOP_REQUIRE(policy.batch > 0, "batch must be positive");

  obs::Span exp_span("exp/run_trials");

  TrialSummary summary;
  summary.metrics.assign(metric_count, RunningStats{});

  // The stopping rule is first checked at the first batch end at or past
  // min_trials; every trial before it runs in one parallel_for (one pool
  // barrier, not one per batch). The batches after it are the policy's own.
  std::size_t next_trial = 0;
  const std::size_t first_batches = std::max<std::size_t>(
      1, policy.min_trials / policy.batch +
             (policy.min_trials % policy.batch != 0 ? 1 : 0));
  const std::size_t first_check =
      std::min(policy.max_trials, first_batches * policy.batch);
  while (next_trial < policy.max_trials) {
    const std::size_t batch_end =
        next_trial == 0
            ? first_check
            : std::min(policy.max_trials, next_trial + policy.batch);
    const std::size_t batch_size = batch_end - next_trial;

    obs::Span batch_span("exp/batch");
    batch_span.arg("first_trial", static_cast<std::int64_t>(next_trial));
    batch_span.arg("size", static_cast<std::int64_t>(batch_size));

    // Results land in per-trial slots; aggregation below is in index order,
    // so the summary is bit-identical for any thread count. A throwing
    // trial surfaces here, the lowest throwing index's exception.
    std::vector<std::vector<double>> results(batch_size);
    parallel_for(pool, batch_size, [&](std::size_t i) {
      const std::size_t trial = next_trial + i;
      obs::Span trial_span("exp/trial");
      trial_span.arg("trial", static_cast<std::int64_t>(trial));
      Rng rng = master.spawn(trial);
      // The worker's workspace persists across its trials (and across
      // batches): scratch buffers stay warm for the whole experiment.
      results[i] = fn(rng, trial, tls_workspace());
    });

    for (std::size_t i = 0; i < batch_size; ++i) {
      KHOP_REQUIRE(results[i].size() == metric_count,
                   "trial returned wrong metric arity");
      for (std::size_t m = 0; m < metric_count; ++m) {
        summary.metrics[m].add(results[i][m]);
      }
    }
    next_trial = batch_end;
    summary.trials_run = next_trial;

    if (next_trial >= policy.min_trials) {
      const bool all_tight = std::all_of(
          summary.metrics.begin(), summary.metrics.end(),
          [&](const RunningStats& s) {
            return ci_within_relative(s, policy.rel_halfwidth);
          });
      if (all_tight) {
        summary.converged = true;
        break;
      }
    }
  }
  exp_span.arg("trials", static_cast<std::int64_t>(summary.trials_run));
  exp_span.arg("converged", summary.converged ? 1 : 0);
  return summary;
}

}  // namespace khop
