/// \file protocol_sim.cpp
/// Workload protocol_sim: the distributed protocols in the message engine —
/// the only workload that exercises sim/ and radio/.
///
/// Set-up: pool start + a connected jittered grid at n = 5*10^4 + lowest-id
/// priorities.
/// Timed operation: one suite of four protocol runs, each waiting for the
/// previous — run_distributed_clustering (k = 2) and run_distributed_aclmst
/// on the serial engine, then the k = 3 NeighborhoodDiscoveryAgent flood
/// through SyncEngine::run(rounds, pool), first on the ideal MAC and then
/// under UniformLossDelivery(0.2) with retry budget 2. The ideal and lossy
/// floods are timed apart so that the round loop and the loss model each
/// have a number of their own.
/// Gate (untimed): the distributed clustering equals khop_clustering, the
/// distributed AC-LMST equals build_backbone(kAcLmst), every node's ideal
/// discovered set equals its k-ball with exact distances, every lossy
/// discovered record lies inside the k-ball no closer than the truth, and
/// the lossy run repeats exactly across suites.
#include <algorithm>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/radio/delivery.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/clustering_protocol.hpp"
#include "khop/sim/protocols/gateway_protocol.hpp"
#include "khop/sim/protocols/neighborhood.hpp"
#include "khop/runtime/workspace.hpp"

namespace e2e {

using namespace khop;

namespace {

constexpr int kSetupReps = 5;
constexpr Hops kK = 2;
constexpr Hops kFloodK = 3;
constexpr double kLoss = 0.2;
constexpr std::size_t kRetryBudget = 2;
constexpr std::size_t kFloodRounds = 2 * kFloodK + 2;

/// Ideal (\p exact): each node knows exactly its k-ball minus itself, at
/// the true hop distances. Lossy: a subset of the k-ball, never closer
/// than the true distance.
std::string check_discovery(const Graph& g, const SyncEngine& engine,
                            BfsScratch& bfs, bool exact) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& agent =
        dynamic_cast<const NeighborhoodDiscoveryAgent&>(engine.agent(v));
    bfs.run(g, v, kFloodK);
    if (exact && agent.known().size() + 1 != bfs.reached().size()) {
      return "node " + std::to_string(v) + " discovered " +
             std::to_string(agent.known().size()) + " of " +
             std::to_string(bfs.reached().size() - 1) + " k-ball nodes";
    }
    NodeId bad = kInvalidNode;
    agent.known().for_each([&](NodeId origin, const KnownRecord& rec) {
      const Hops d = origin == v ? kUnreachable : bfs.dist(origin);
      if (d == kUnreachable || (exact ? rec.dist != d : rec.dist < d)) {
        bad = origin;
      }
    });
    if (bad != kInvalidNode) {
      return "node " + std::to_string(v) + " holds a wrong record for " +
             std::to_string(bad);
    }
  }
  return {};
}

struct SuiteRun {
  Clustering clustering;
  Backbone backbone;
  SimStats cluster_stats, gateway_stats, flood_stats, lossy_stats;
  std::string flood_error, lossy_error;
  double cluster_s = 0.0, gateway_s = 0.0, flood_s = 0.0, lossy_s = 0.0;

  double protocol_s() const { return cluster_s + gateway_s; }
  double total_s() const { return cluster_s + gateway_s + flood_s + lossy_s; }
};

/// Runs the four protocol runs back to back. Each flood's discovery state
/// is checked (untimed) and freed before the next run starts, so the peak
/// footprint is one flood engine, not two.
SuiteRun run_suite(const Graph& g, const std::vector<PriorityKey>& prio,
                   ThreadPool& pool, std::uint64_t loss_seed,
                   BfsScratch& bfs) {
  SuiteRun r;
  const auto factory = [](NodeId) {
    return std::make_unique<NeighborhoodDiscoveryAgent>(kFloodK);
  };
  auto t0 = Clock::now();
  {
    Span s("sim.cluster");
    r.clustering = run_distributed_clustering(
        g, kK, prio, AffiliationRule::kIdBased, &r.cluster_stats);
  }
  r.cluster_s = secs(Clock::now() - t0);

  t0 = Clock::now();
  {
    Span s("sim.gateway");
    r.backbone = run_distributed_aclmst(g, r.clustering, &r.gateway_stats);
  }
  r.gateway_s = secs(Clock::now() - t0);

  {
    SyncEngine flood(g, factory);
    t0 = Clock::now();
    bool quiescent = false;
    {
      Span s("sim.flood");
      quiescent = flood.run(kFloodRounds, pool);
    }
    r.flood_s = secs(Clock::now() - t0);
    r.flood_stats = flood.stats();
    r.flood_error = quiescent ? check_discovery(g, flood, bfs, true)
                              : "ideal flood did not quiesce";
  }

  UniformLossDelivery model(kLoss, loss_seed);
  SyncEngine lossy(g, factory, DeliveryOptions{&model, kRetryBudget});
  t0 = Clock::now();
  {
    Span s("sim.flood_lossy");
    lossy.run(kFloodRounds, pool);
  }
  r.lossy_s = secs(Clock::now() - t0);
  r.lossy_stats = lossy.stats();
  r.lossy_error = check_discovery(g, lossy, bfs, false);
  return r;
}

bool same_stats(const SimStats& a, const SimStats& b) {
  return a.rounds == b.rounds && a.transmissions == b.transmissions &&
         a.receptions == b.receptions && a.payload_words == b.payload_words &&
         a.drops == b.drops && a.retransmissions == b.retransmissions;
}

}  // namespace

Outcome run_protocol_sim(const Context& cx) {
  Outcome out;
  const std::size_t n = cx.opt.scale.sim_n;
  const std::uint64_t loss_seed = derive_seed(cx.opt.seed, 5);

  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  Topology topo;
  std::vector<PriorityKey> prio;
  Workspace ws;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<ThreadPool>(cx.threads);
    topo = connected_placement(n, derive_seed(cx.opt.seed, 3), kGridDegree,
                               ws.grid, pool.get(), ws.bfs)
               .topology;
    prio = make_priorities(topo.graph, PriorityRule::kLowestId);
    setup_s.push_back(secs(Clock::now() - t0));
  }
  const Graph& g = topo.graph;

  // Gate references: the centralized algorithms the protocols must match.
  const Clustering ref_c =
      khop_clustering(g, kK, prio, AffiliationRule::kIdBased, ws);
  const Backbone ref_b = build_backbone(g, ref_c, Pipeline::kAcLmst, ws);

  std::vector<double> totals, protocol, flood, lossy;
  SimStats first_lossy;
  bool have_first = false;
  BfsScratch bfs;
  const auto one_suite = [&]() -> SuiteRun {
    SuiteRun r = run_suite(g, prio, *pool, loss_seed, bfs);
    totals.push_back(r.total_s());
    protocol.push_back(r.protocol_s());
    flood.push_back(r.flood_s);
    lossy.push_back(r.lossy_s);
    if (cx.opt.corrupt) {
      for (NodeId v = 0; v < r.clustering.head_of.size(); ++v) {
        if (r.clustering.head_of[v] != v) {
          ++r.clustering.dist_to_head[v];
          break;
        }
      }
    }
    const Clustering& c = r.clustering;
    out.ops(1, c.heads == ref_c.heads && c.head_of == ref_c.head_of &&
                       c.dist_to_head == ref_c.dist_to_head
                   ? ""
                   : "protocol_sim: distributed clustering differs from "
                     "khop_clustering");
    const Backbone& b = r.backbone;
    out.ops(1, b.heads == ref_b.heads && b.gateways == ref_b.gateways &&
                       b.virtual_links == ref_b.virtual_links
                   ? ""
                   : "protocol_sim: distributed AC-LMST differs from "
                     "build_backbone");
    const std::string& ferr = r.flood_error;
    out.ops(1, ferr.empty() ? ferr : "protocol_sim ideal flood: " + ferr);
    std::string err = r.lossy_error;
    if (err.empty() && have_first && !same_stats(first_lossy, r.lossy_stats)) {
      err = "lossy run differs between suites";
    }
    if (!have_first) first_lossy = r.lossy_stats;
    have_first = true;
    out.ops(1, err.empty() ? err : "protocol_sim lossy flood: " + err);
    return r;
  };

  if (!cx.opt.trace) {
    const auto start = Clock::now();
    while (totals.empty() || secs(Clock::now() - start) < cx.opt.seconds) {
      one_suite();
    }
  } else {
    one_suite();  // untraced reference for trace_overhead
    Tracer& t = tracer();
    const Tracer::Mark mark = t.mark();
    t.set_enabled(true);
    const SuiteRun r = one_suite();
    t.set_enabled(false);
    const Fold f = t.fold(mark);
    const struct {
      const char* name;
      const SimStats& stats;
    } runs[] = {{"cluster", r.cluster_stats},
                {"gateway", r.gateway_stats},
                {"flood", r.flood_stats},
                {"flood_lossy", r.lossy_stats}};
    for (const auto& run : runs) {
      const std::string p = std::string("sim.") + run.name;
      const SimStats& s = run.stats;
      out.layer.push_back({p + ".rounds", static_cast<double>(s.rounds),
                           "count"});
      out.layer.push_back({p + ".tx", static_cast<double>(s.transmissions),
                           "count"});
      out.layer.push_back({p + ".rx", static_cast<double>(s.receptions),
                           "count"});
      out.layer.push_back({p + ".payload_words",
                           static_cast<double>(s.payload_words), "count"});
      out.layer.push_back(
          {p + "_ns_per_rx",
           f.span(p).incl_s * 1e9 /
               static_cast<double>(std::max<std::size_t>(1, s.receptions)),
           "ns"});
      out.layer.push_back({p + ".allocs",
                           static_cast<double>(f.span(p).allocs), "count"});
    }
    const SimStats& ls = r.lossy_stats;
    out.layer.push_back({"radio.drops", static_cast<double>(ls.drops),
                         "count"});
    out.layer.push_back({"radio.retransmissions",
                         static_cast<double>(ls.retransmissions), "count"});
    out.layer.push_back(
        {"radio.delivery_ratio",
         static_cast<double>(ls.receptions) /
             static_cast<double>(std::max<std::size_t>(
                 1, ls.receptions + ls.drops)),
         "ratio"});
    out.layer.push_back(
        {"protocol_sim.trace_overhead", totals[1] / totals[0], "ratio"});
    add_fold_report(out, "protocol_sim", f);
  }

  std::ostringstream info;
  info << "protocol_sim n=" << n << " m=" << g.num_edges()
       << " heads=" << ref_c.heads.size() << " cds=" << ref_b.cds_size()
       << " lossy_rx=" << first_lossy.receptions
       << " lossy_drops=" << first_lossy.drops
       << " lossy_retries=" << first_lossy.retransmissions
       << " suites=" << totals.size();
  out.report.push_back(info.str());

  double total = 0.0;
  for (const double s : totals) total += s;
  const double setup = median(setup_s);
  out.e2e = {{"setup_s", setup, "s"},
             {"ops_per_s", static_cast<double>(totals.size()) / total, "1/s"},
             {"peak_rss_mb", peak_rss_mb(), "MB"}};
  out.named = {{"setup_s", setup, "s"},
               {"protocol_s", median(protocol), "s"},
               {"flood_s", median(flood), "s"},
               {"flood_lossy_s", median(lossy), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  return out;
}

}  // namespace e2e
