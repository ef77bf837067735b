/// \file paper_sweep.cpp
/// Workload paper_sweep: the paper's own use — paired Monte-Carlo trials on
/// the Fig. 5/6 grid (D in {6, 10}, k in 1..4, N in {50, 100, 150, 200}).
/// Thousands of cache-resident graphs make per-call overhead, placement
/// retries and pool scheduling visible; at n = 10^6 those costs hide.
///
/// Set-up: pool start + one calibrated radius per (N, D) (resolve_radius).
/// Timed operation: one paired trial — generate_network, khop_clustering,
/// validate_clustering, then all five pipelines, each checked with
/// validate_k_cds. Trials run through run_trials with a fixed count per
/// grid point (no adaptive stop, so the work is constant); one sweep of the
/// grid after another, each waiting for the previous.
/// Gate: every validator of every trial passes (checked inside the trial,
/// outside its timing only in the sense that a failure is counted, never
/// retried), and the per-point means of each sweep repeat exactly.
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "common.hpp"
#include "khop/cds/cds.hpp"
#include "khop/cluster/validate.hpp"
#include "khop/exp/experiment.hpp"
#include "khop/exp/trial.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/workspace.hpp"

namespace e2e {

using namespace khop;

namespace {

constexpr int kSetupReps = 5;
constexpr double kDegrees[] = {6.0, 10.0};
constexpr std::size_t kNodeCounts[] = {50, 100, 150, 200};
constexpr Hops kMaxK = 4;
/// Trial metrics: heads, the five CDS sizes, placement attempts.
constexpr std::size_t kMetrics = 7;

struct PipelineStage {
  Pipeline pipeline;
  const char* span;
};

constexpr PipelineStage kPipelines[] = {
    {Pipeline::kNcMesh, "gateway.nc_mesh"},
    {Pipeline::kAcMesh, "gateway.ac_mesh"},
    {Pipeline::kNcLmst, "gateway.nc_lmst"},
    {Pipeline::kAcLmst, "gateway.ac_lmst"},
    {Pipeline::kGmst, "gateway.gmst"},
};

struct GridPoint {
  double degree = 0.0;
  Hops k = 1;
  std::size_t nodes = 0;
  double radius = 0.0;
  std::uint64_t seed = 0;
};

std::vector<GridPoint> calibrate(std::uint64_t seed) {
  std::vector<GridPoint> points;
  for (const double degree : kDegrees) {
    for (const std::size_t nodes : kNodeCounts) {
      ExperimentConfig cal;
      cal.num_nodes = nodes;
      cal.avg_degree = degree;
      const double radius = resolve_radius(cal, derive_seed(seed, 2));
      for (Hops k = 1; k <= kMaxK; ++k) {
        points.push_back({degree, k, nodes, radius,
                          derive_seed(seed, 100 + points.size())});
      }
    }
  }
  return points;
}

std::vector<double> trial_body(const GridPoint& p, Rng& rng, Workspace& ws,
                               bool corrupt, std::string& err) {
  const auto note = [&](const char* what, const std::string& e) {
    if (!e.empty() && err.empty()) err = std::string(what) + ": " + e;
  };
  GeneratorConfig gen;
  gen.num_nodes = p.nodes;
  gen.explicit_radius = p.radius;
  AdHocNetwork net;
  {
    Span s("net.generate");
    net = generate_network(gen, rng, ws);
  }
  const Graph& g = net.graph;
  Clustering c;
  {
    Span s("cluster.elect");
    c = khop_clustering(g, p.k, make_priorities(g, PriorityRule::kLowestId),
                        AffiliationRule::kIdBased, ws);
  }
  if (corrupt) {
    Clustering bad = c;
    for (NodeId v = 0; v < bad.head_of.size(); ++v) {
      if (bad.head_of[v] != v) {
        ++bad.dist_to_head[v];
        break;
      }
    }
    note("validate_clustering", validate_clustering(g, bad));
  }
  {
    Span s("cluster.validate");
    note("validate_clustering", validate_clustering(g, c));
  }
  std::vector<double> m;
  m.reserve(kMetrics + 1);
  m.push_back(static_cast<double>(c.heads.size()));
  for (const PipelineStage& stage : kPipelines) {
    Backbone b;
    {
      Span s(stage.span);
      b = build_backbone(g, c, stage.pipeline, ws);
    }
    std::string e;
    {
      Span s("cds.validate");
      e = validate_k_cds(g, c, b);
    }
    note(stage.span, e);
    m.push_back(static_cast<double>(b.cds_size()));
  }
  m.push_back(static_cast<double>(net.placement_attempts));
  return m;
}

struct SweepRun {
  double wall_s = 0.0;
  std::vector<double> trial_s;  ///< by (point, trial)
  std::uint64_t digest = 1469598103934665603ULL;
  double placement_attempts = 0.0;  ///< summed over trials
  std::size_t failed = 0;
  std::string first_error;
};

SweepRun run_sweep(const std::vector<GridPoint>& points, ThreadPool& pool,
                   std::size_t trials, bool corrupt) {
  SweepRun r;
  r.trial_s.assign(points.size() * trials, 0.0);
  std::atomic<std::size_t> failed{0};
  std::mutex mu;
  const auto t0 = Clock::now();
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const GridPoint& p = points[pi];
    TrialPolicy policy;
    policy.min_trials = trials;
    policy.max_trials = trials;
    TrialSummary summary;
    {
      Span s("exp.run_trials");
      summary = run_trials(
          pool, policy, Rng(p.seed), kMetrics + 1,
          [&](Rng& rng, std::size_t trial, Workspace& ws) {
            const auto start = Clock::now();
            std::string err;
            std::vector<double> m;
            {
              Span t("exp.trial");
              try {
                m = trial_body(p, rng, ws, corrupt && pi == 0 && trial == 0,
                               err);
              } catch (const std::exception& e) {
                err = std::string("exception: ") + e.what();
                m.assign(kMetrics, 0.0);
              }
            }
            const double dt = secs(Clock::now() - start);
            r.trial_s[pi * trials + trial] = dt;
            if (!err.empty()) {
              failed.fetch_add(1, std::memory_order_relaxed);
              std::lock_guard lock(mu);
              if (r.first_error.empty()) r.first_error = err;
            }
            m.push_back(dt);  // not digested: the last metric is timing
            return m;
          });
    }
    for (std::size_t m = 0; m < kMetrics; ++m) {
      const double v = summary.metrics[m].mean();
      r.digest = fnv1a(&v, sizeof v, r.digest);
    }
    r.placement_attempts +=
        summary.metrics[kMetrics - 1].mean() * static_cast<double>(trials);
  }
  r.wall_s = secs(Clock::now() - t0);
  r.failed = failed.load();
  return r;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Outcome run_paper_sweep(const Context& cx) {
  Outcome out;
  const std::size_t trials = cx.opt.scale.sweep_trials;

  std::vector<double> setup_s, calibrate_s;
  std::unique_ptr<ThreadPool> pool;
  std::vector<GridPoint> points;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(cx.threads);
    const auto t1 = Clock::now();
    points = calibrate(cx.opt.seed);
    const auto t2 = Clock::now();
    setup_s.push_back(secs(t2 - t0));
    calibrate_s.push_back(secs(t2 - t1));
  }
  const std::size_t per_sweep = points.size() * trials;

  std::vector<SweepRun> sweeps;
  const auto account = [&](SweepRun&& r) {
    if (!sweeps.empty() && r.digest != sweeps.front().digest) {
      out.ops(per_sweep, "paper_sweep: grid-point means differ between "
                         "sweeps of one seed");
    } else {
      out.ops(per_sweep - r.failed);
      if (r.failed != 0) out.ops(r.failed, "paper_sweep: " + r.first_error);
    }
    sweeps.push_back(std::move(r));
  };

  if (!cx.opt.trace) {
    const auto start = Clock::now();
    while (sweeps.empty() || secs(Clock::now() - start) < cx.opt.seconds) {
      account(run_sweep(points, *pool, trials, cx.opt.corrupt));
    }
  } else {
    account(run_sweep(points, *pool, trials, cx.opt.corrupt));
    Tracer& t = tracer();
    const Tracer::Mark mark = t.mark();
    t.set_enabled(true);
    account(run_sweep(points, *pool, trials, false));
    t.set_enabled(false);
    const Fold f = t.fold(mark);

    // Allocation counts per call, from one serial trial per grid point on
    // this thread while the pool is idle (the process-wide counter cannot
    // separate the pool's concurrent trials).
    const Tracer::Mark probe_mark = t.mark();
    t.set_enabled(true);
    for (const GridPoint& p : points) {
      Rng rng = Rng(p.seed).spawn(0);
      std::string err;
      trial_body(p, rng, tls_workspace(), false, err);
      if (!err.empty()) out.fail("paper_sweep probe: " + err);
    }
    t.set_enabled(false);
    const Fold probe = t.fold(probe_mark);

    const SweepRun& ref = sweeps[0];
    double busy = 0.0;
    for (const double s : ref.trial_s) busy += s;
    const auto per_call_us = [&](const char* name) {
      const FoldRow& row = f.span(name);
      return row.count == 0 ? 0.0 : row.incl_s / row.count * 1e6;
    };
    out.layer = {
        {"net.generate_us", per_call_us("net.generate"), "us"},
        {"net.placement_attempts",
         ref.placement_attempts / static_cast<double>(per_sweep), "count"},
        {"cluster.elect_us", per_call_us("cluster.elect"), "us"},
        {"cluster.validate_us", per_call_us("cluster.validate"), "us"},
    };
    for (const PipelineStage& stage : kPipelines) {
      out.layer.push_back({std::string(stage.span) + "_us",
                           per_call_us(stage.span), "us"});
    }
    out.layer.push_back({"cds.validate_us", per_call_us("cds.validate"), "us"});
    out.layer.push_back(
        {"exp.trial_us_p50", median(ref.trial_s) * 1e6, "us"});
    out.layer.push_back(
        {"exp.trial_us_p99", quantile(ref.trial_s, 0.99) * 1e6, "us"});
    out.layer.push_back({"exp.calibrate_s", median(calibrate_s), "s"});
    out.layer.push_back(
        {"runtime.pool_busy_frac",
         busy / (ref.wall_s * static_cast<double>(pool->num_threads())),
         "ratio"});
    out.layer.push_back({"paper_sweep.trace_overhead",
                         sweeps[1].wall_s / ref.wall_s, "ratio"});
    std::vector<const char*> stages = {"net.generate", "cluster.elect",
                                       "cluster.validate"};
    for (const PipelineStage& stage : kPipelines) stages.push_back(stage.span);
    stages.push_back("cds.validate");
    for (const char* s : stages) {
      const FoldRow& row = probe.span(s);
      out.layer.push_back(
          {std::string("sweep.") + s + ".allocs",
           row.count == 0 ? 0.0
                          : static_cast<double>(row.allocs) /
                                static_cast<double>(row.count),
           "count"});
    }
    add_fold_report(out, "paper_sweep", f);
  }

  std::vector<double> all_trials;
  double wall = 0.0;
  for (const SweepRun& s : sweeps) {
    all_trials.insert(all_trials.end(), s.trial_s.begin(), s.trial_s.end());
    wall += s.wall_s;
  }
  const double trials_per_s =
      static_cast<double>(all_trials.size()) / wall;
  std::ostringstream info;
  info << "paper_sweep points=" << points.size() << " trials_per_point="
       << trials << " sweeps=" << sweeps.size()
       << " means_digest=" << hex(sweeps.front().digest)
       << " calibrate_s=" << median(calibrate_s);
  out.report.push_back(info.str());

  const double setup = median(setup_s);
  out.e2e = {{"setup_s", setup, "s"},
             {"ops_per_s", trials_per_s, "1/s"},
             {"peak_rss_mb", peak_rss_mb(), "MB"}};
  out.named = {{"setup_s", setup, "s"},
               {"trials_per_s", trials_per_s, "1/s"},
               {"trial_p50_us", median(all_trials) * 1e6, "us"}};
  if (has_p99(all_trials.size())) {
    out.named.push_back(
        {"trial_p99_us", quantile(all_trials, 0.99) * 1e6, "us"});
  }
  out.named.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return out;
}

}  // namespace e2e
