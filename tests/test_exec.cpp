// Routing of the execution parameter: which workspace a stage's scratch
// lands in under Exec{}, Exec(workspace) and Exec(pool), the one-block and
// pooled shapes of exec_blocks, and the stages that take only a workspace.
// Each routing check runs on a fresh std::thread, whose tls_workspace()
// starts empty, so a buffer's capacity tells which workspace a stage used.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/exp/trial.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/exec.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {
namespace {

/// Runs \p fn on a new thread and joins it; gtest assertions inside count.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

/// A connected network with its A-NCR selection and links: the inputs of
/// lmst_gateways, built on the calling thread.
struct LmstInputs {
  Graph g;
  Clustering c;
  NeighborSelection sel;
  VirtualLinkMap links;
};

LmstInputs lmst_inputs() {
  GeneratorConfig gen;
  gen.num_nodes = 150;
  gen.target_degree = 6.0;
  Rng rng(25);
  LmstInputs in;
  in.g = generate_network(gen, rng).graph;
  in.c = khop_clustering(in.g, 2);
  in.sel = select_neighbors(in.g, in.c, NeighborRule::kAdjacent);
  in.links = VirtualLinkMap::build(in.g, in.sel.head_pairs, 5);
  return in;
}

TEST(ExecRouting, ExplicitWorkspaceKeepsTheStagesScratch) {
  const LmstInputs in = lmst_inputs();
  ASSERT_FALSE(in.sel.head_pairs.empty());
  on_fresh_thread([&] {
    Workspace ws;
    const LmstResult r = lmst_gateways(in.c, in.sel, in.links,
                                       LmstKeepRule::kEitherEndpoint, ws);
    EXPECT_FALSE(r.gateways.empty());
    EXPECT_GT(ws.lmst_pairs.entries.capacity(), 0u);
    EXPECT_GT(ws.gateway_marks.capacity(), 0u);

    // The election and whole backbones on ws too, the blocks' searches
    // (NC sweeps, A-NCR scans, link extraction) included.
    const Clustering c = khop_clustering(
        in.g, 2, make_priorities(in.g, PriorityRule::kLowestId),
        AffiliationRule::kIdBased, ws);
    EXPECT_GT(ws.election.winners.capacity(), 0u);
    for (const Pipeline p : kAllPipelines) {
      const Backbone b = build_backbone(in.g, c, p, ws);
      EXPECT_EQ(b.heads, c.heads);
    }
    EXPECT_FALSE(ws.bfs.reached().empty());
    EXPECT_GT(ws.node_buf.capacity(), 0u);

    const Workspace& mine = tls_workspace();
    EXPECT_EQ(mine.lmst_pairs.entries.capacity(), 0u);
    EXPECT_EQ(mine.gateway_marks.capacity(), 0u);
    EXPECT_EQ(mine.election.winners.capacity(), 0u);
    EXPECT_TRUE(mine.bfs.reached().empty());
    EXPECT_EQ(mine.node_buf.capacity(), 0u);
  });
}

TEST(ExecRouting, DefaultAndPoolUseTheCallingThreadsWorkspace) {
  const LmstInputs in = lmst_inputs();
  ThreadPool pool(2);
  Workspace ws;
  on_fresh_thread([&] {
    const Exec serial;
    EXPECT_EQ(serial.ws, &tls_workspace());
    EXPECT_EQ(serial.pool, nullptr);
    const Exec pooled(pool);
    EXPECT_EQ(pooled.ws, &tls_workspace());
    EXPECT_EQ(pooled.pool, &pool);
    const Exec explicit_ws(ws);
    EXPECT_EQ(explicit_ws.ws, &ws);
    EXPECT_EQ(explicit_ws.pool, nullptr);
  });
  // The pair table lives on the caller with or without a pool: the blocks
  // only read it and set its flags.
  for (const bool use_pool : {false, true}) {
    on_fresh_thread([&] {
      const LmstResult r =
          use_pool ? lmst_gateways(in.c, in.sel, in.links,
                                   LmstKeepRule::kEitherEndpoint, pool)
                   : lmst_gateways(in.c, in.sel, in.links);
      EXPECT_FALSE(r.gateways.empty());
      EXPECT_GT(tls_workspace().lmst_pairs.entries.capacity(), 0u)
          << "use_pool=" << use_pool;
    });
  }
}

TEST(ExecRouting, BlocksRunOnTheWorkspaceOrTheWorkers) {
  ThreadPool pool(3);
  Workspace ws;
  const std::size_t count = 100;

  // No pool: one block over everything, on the given workspace.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  EXPECT_EQ(block_count(Exec(ws), count), 1u);
  exec_blocks(Exec(ws), count,
              [&](std::size_t b, std::size_t lo, std::size_t hi,
                  Workspace& w) {
                EXPECT_EQ(b, 0u);
                EXPECT_EQ(&w, &ws);
                ranges.emplace_back(lo, hi);
              });
  EXPECT_EQ(ranges, (std::vector<std::pair<std::size_t, std::size_t>>{
                        {0, count}}));

  // A pool: parallel_blocks' blocks, each on its worker's own workspace.
  const std::size_t blocks = block_count(Exec(pool), count);
  EXPECT_EQ(blocks, block_count(pool, count));
  std::vector<const Workspace*> used(blocks, nullptr);
  std::vector<std::size_t> covered(count, 0);
  exec_blocks(Exec(pool), count,
              [&](std::size_t b, std::size_t lo, std::size_t hi,
                  Workspace& w) {
                used[b] = &w;
                EXPECT_EQ(&w, &tls_workspace());
                for (std::size_t i = lo; i < hi; ++i) ++covered[i];
              });
  EXPECT_TRUE(std::none_of(used.begin(), used.end(),
                           [&](const Workspace* w) {
                             return w == nullptr || w == &ws ||
                                    w == &tls_workspace();
                           }));
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](std::size_t c) { return c == 1; }));

  // exec_concat: the blocks' outputs in block order, or one fill.
  const auto fill = [](std::size_t lo, std::size_t hi, Workspace&,
                       std::vector<std::size_t>& out) {
    for (std::size_t i = lo; i < hi; ++i) out.push_back(i);
  };
  std::vector<std::size_t> want(count);
  for (std::size_t i = 0; i < count; ++i) want[i] = i;
  EXPECT_EQ(exec_concat<std::size_t>(Exec(ws), count, fill), want);
  EXPECT_EQ(exec_concat<std::size_t>(Exec(pool), count, fill), want);
}

template <typename Executor>
concept ClusteringAccepts = requires(const Graph& g,
                                     const std::vector<PriorityKey>& p,
                                     Executor& e) {
  khop_clustering(g, Hops{1}, p, AffiliationRule::kIdBased, e);
};

template <typename Executor>
concept GeneratorAccepts = requires(const GeneratorConfig& cfg, Rng& rng,
                                    Executor& e) {
  generate_network(cfg, rng, e);
};

template <typename Executor>
concept BackboneAccepts = requires(const Graph& g, const Clustering& c,
                                   Executor& e) {
  build_backbone(g, c, Pipeline::kAcLmst, e);
};

TEST(ExecRouting, WorkspaceOnlyStagesRejectAPoolAtCompileTime) {
  // The election and the generator have no pool path: a pool is a compile
  // error, not a silent serial run. The pooled stages take either.
  static_assert(ClusteringAccepts<Workspace>);
  static_assert(!ClusteringAccepts<ThreadPool>);
  static_assert(GeneratorAccepts<Workspace>);
  static_assert(!GeneratorAccepts<ThreadPool>);
  static_assert(BackboneAccepts<Workspace>);
  static_assert(BackboneAccepts<ThreadPool>);
  SUCCEED();
}

TEST(ExecRouting, TrialBodyPassingItsOwnPoolThrows) {
  // Trials run on the pool's workers; a trial that hands the same pool to
  // a pooled stage gets InvalidArgument instead of waiting on itself, and
  // the pool keeps working.
  GeneratorConfig gen;
  gen.num_nodes = 60;
  Rng rng(3);
  const Graph g = generate_network(gen, rng).graph;
  const Clustering c = khop_clustering(g, 2);
  ThreadPool pool(2);
  TrialPolicy policy;
  policy.min_trials = 4;
  policy.max_trials = 4;
  EXPECT_THROW(run_trials(pool, policy, Rng(1), 1,
                          [&](Rng&, std::size_t, Workspace&) {
                            const Backbone b =
                                build_backbone(g, c, Pipeline::kAcLmst, pool);
                            return std::vector<double>{
                                static_cast<double>(b.cds_size())};
                          }),
               InvalidArgument);
  const Backbone want = build_backbone(g, c, Pipeline::kAcLmst);
  const TrialSummary ok = run_trials(
      pool, policy, Rng(1), 1, [&](Rng&, std::size_t, Workspace& ws) {
        const Backbone b = build_backbone(g, c, Pipeline::kAcLmst, ws);
        return std::vector<double>{static_cast<double>(b.cds_size())};
      });
  EXPECT_EQ(ok.trials_run, 4u);
  EXPECT_EQ(ok.metrics[0].mean(), static_cast<double>(want.cds_size()));
}

}  // namespace
}  // namespace khop
