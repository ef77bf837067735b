/// \file static_scale.cpp
/// Workload static_scale: the formation path at n = 10^6 — positions to a
/// checked k-CDS. The working set is far larger than the caches, and this
/// is the only workload where the election and the backbone sweeps
/// dominate.
///
/// Set-up: pool start + seeded jittered-grid positions (shuffled ids),
/// redrawn until connected at the base radius (see connected_placement).
/// Timed operation (closed loop, one at a time): streamed unit-disk build
/// with radius bumps until connected, k = 2 lowest-id clustering, AC-LMST
/// backbone over the pool, validate_k_cds.
/// Gate (untimed): the validate_k_cds verdict, Theorem 1 checked with one
/// k-bounded BFS per head (validate_clustering keeps one unbounded BFS tree
/// per head — O(H n) — and does not fit at this n), and an output digest
/// that must repeat exactly across operations.
#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "khop/cds/cds.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/runtime/workspace.hpp"

namespace e2e {

using namespace khop;

namespace {

constexpr Hops kK = 2;
constexpr int kSetupReps = 3;

struct PipelineRun {
  Topology topo;
  Clustering clustering;
  Backbone backbone;
  std::string cds_error;
  double wall_s = 0.0;
};

PipelineRun run_pipeline(const std::vector<Point2>& pts, Workspace& ws,
                         ThreadPool& pool) {
  PipelineRun r;
  const auto t0 = Clock::now();
  {
    Span top("static.pipeline");
    r.topo = connect_unit_disk(pts, kGridDegree, ws.grid, &pool, ws.bfs);
    const Graph& g = r.topo.graph;
    {
      Span s("cluster.elect");
      r.clustering =
          khop_clustering(g, kK, make_priorities(g, PriorityRule::kLowestId),
                          AffiliationRule::kIdBased, ws);
    }
    {
      Span s("gateway.backbone");
      r.backbone = build_backbone(g, r.clustering, Pipeline::kAcLmst, pool);
    }
    {
      Span s("cds.validate");
      r.cds_error = validate_k_cds(g, r.clustering, r.backbone);
    }
  }
  r.wall_s = secs(Clock::now() - t0);
  return r;
}

/// Theorem 1 with k-bounded searches only: heads are pairwise more than k
/// hops apart, every node's recorded head is a head within k hops, and its
/// recorded distance is the true hop distance.
std::string check_theorem1(const Graph& g, const Clustering& c,
                           BfsScratch& bfs) {
  const std::size_t n = g.num_nodes();
  if (c.head_of.size() != n || c.dist_to_head.size() != n) {
    return "clustering arrays do not match the graph";
  }
  std::size_t covered = 0;
  for (const NodeId h : c.heads) {
    if (c.head_of[h] != h) return "listed head " + std::to_string(h) +
                                  " is not its own head";
    bfs.run(g, h, c.k);
    for (const NodeId v : bfs.reached()) {
      if (v != h && c.head_of[v] == v) {
        return "heads " + std::to_string(h) + " and " + std::to_string(v) +
               " are within k hops";
      }
      if (c.head_of[v] == h) {
        if (bfs.dist(v) != c.dist_to_head[v]) {
          return "node " + std::to_string(v) + " records distance " +
                 std::to_string(c.dist_to_head[v]) + " to its head, BFS " +
                 std::to_string(bfs.dist(v));
        }
        ++covered;
      }
    }
  }
  if (covered != n) return "some node is not within k hops of its head";
  return {};
}

template <typename T>
std::uint64_t hash_vec(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t digest(const PipelineRun& r) {
  std::uint64_t h = fnv1a(&r.topo.radius, sizeof r.topo.radius);
  h = hash_vec(r.clustering.heads, h);
  h = hash_vec(r.clustering.head_of, h);
  h = hash_vec(r.clustering.dist_to_head, h);
  h = hash_vec(r.backbone.gateways, h);
  return hash_vec(r.backbone.virtual_links, h);
}

std::string gate(PipelineRun& r, BfsScratch& bfs, bool corrupt,
                 std::uint64_t& first_digest) {
  if (!r.topo.connected) return "unit-disk graph never became connected";
  if (!r.cds_error.empty()) return "validate_k_cds: " + r.cds_error;
  if (corrupt) {
    Clustering& c = r.clustering;
    const auto v = std::find_if(c.head_of.begin(), c.head_of.end(),
                                [&, i = NodeId{0}](NodeId h) mutable {
                                  return h != i++;
                                });
    if (v != c.head_of.end()) ++c.dist_to_head[v - c.head_of.begin()];
  }
  if (std::string err = check_theorem1(r.topo.graph, r.clustering, bfs);
      !err.empty()) {
    return "theorem 1: " + err;
  }
  const std::uint64_t d = digest(r);
  if (first_digest == 0) first_digest = d;
  if (d != first_digest) return "pipeline output differs between operations";
  return {};
}

}  // namespace

Outcome run_static_scale(const Context& cx) {
  Outcome out;
  const std::size_t n = cx.opt.scale.static_n;

  Workspace ws;
  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::vector<Point2> pts;
  std::size_t attempts = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    pts.clear();
    const auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(cx.threads);
    Placement p = connected_placement(n, derive_seed(cx.opt.seed, 1),
                                      kGridDegree, ws.grid, pool.get(),
                                      ws.bfs);
    pts = std::move(p.points);
    attempts = p.attempts;
    setup_s.push_back(secs(Clock::now() - t0));
  }

  BfsScratch gate_bfs;
  std::uint64_t first_digest = 0;
  std::vector<double> walls;
  PipelineRun last;

  const auto one_op = [&]() -> bool {
    std::string err;
    last = PipelineRun();  // keep one operation's outputs alive at a time
    try {
      PipelineRun r = run_pipeline(pts, ws, *pool);
      walls.push_back(r.wall_s);
      err = gate(r, gate_bfs, cx.opt.corrupt, first_digest);
      last = std::move(r);
    } catch (const std::exception& e) {
      err = std::string("exception: ") + e.what();
    }
    out.ops(1, err.empty() ? err : "static_scale: " + err);
    return err.rfind("exception", 0) != 0;
  };

  if (!cx.opt.trace) {
    const auto start = Clock::now();
    while (walls.empty() || secs(Clock::now() - start) < cx.opt.seconds) {
      if (!one_op()) break;
    }
  } else {
    one_op();  // untraced reference for trace_overhead
    Tracer& t = tracer();
    const Tracer::Mark mark = t.mark();
    t.set_enabled(true);
    one_op();
    t.set_enabled(false);
    const Fold f = t.fold(mark);
    if (walls.size() == 2) {
      const char* stages[] = {"net.unit_disk", "graph.connectivity",
                              "cluster.elect", "gateway.backbone",
                              "cds.validate"};
      double staged = 0.0;
      for (const char* s : stages) staged += f.span(s).incl_s;
      const Clustering& c = last.clustering;
      out.layer = {
          {"net.unit_disk_s", f.span("net.unit_disk").incl_s, "s"},
          {"net.radius_bumps", static_cast<double>(last.topo.radius_bumps),
           "count"},
          {"graph.connectivity_s", f.span("graph.connectivity").incl_s, "s"},
          {"cluster.elect_s", f.span("cluster.elect").incl_s, "s"},
          {"cluster.rounds", static_cast<double>(c.election_rounds), "count"},
          {"cluster.heads", static_cast<double>(c.heads.size()), "count"},
          {"gateway.backbone_s", f.span("gateway.backbone").incl_s, "s"},
          {"gateway.gateways",
           static_cast<double>(last.backbone.gateways.size()), "count"},
          {"gateway.virtual_links",
           static_cast<double>(last.backbone.virtual_links.size()), "count"},
          {"cds.validate_s", f.span("cds.validate").incl_s, "s"},
          {"static.stage_coverage",
           staged / f.span("static.pipeline").incl_s, "ratio"},
          {"static_scale.trace_overhead", walls[1] / walls[0], "ratio"},
      };
      for (const char* s : stages) {
        out.layer.push_back({std::string("static.") + s + ".allocs",
                             static_cast<double>(f.span(s).allocs), "count"});
      }
    }
    add_fold_report(out, "static_scale", f);
  }

  std::ostringstream info;
  info << "static_scale n=" << n << " placement_attempts=" << attempts
       << " m=" << last.topo.graph.num_edges()
       << " radius=" << last.topo.radius
       << " bumps=" << last.topo.radius_bumps
       << " rounds=" << last.clustering.election_rounds
       << " heads=" << last.clustering.heads.size()
       << " cds=" << last.backbone.cds_size() << " pipeline_walls_s=";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    info << (i == 0 ? "" : ",") << walls[i];
  }
  out.report.push_back(info.str());

  double total = 0.0;
  for (const double w : walls) total += w;
  const double setup = median(setup_s);
  out.e2e = {{"setup_s", setup, "s"},
             {"ops_per_s", walls.empty() ? 0.0 : walls.size() / total, "1/s"},
             {"peak_rss_mb", peak_rss_mb(), "MB"}};
  out.named = {{"setup_s", setup, "s"},
               {"pipeline_s", median(walls), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  return out;
}

}  // namespace e2e
