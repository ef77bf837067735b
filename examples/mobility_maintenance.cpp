// Example: continuous k-hop maintenance under mobility-driven churn.
//
// A random-waypoint model moves the nodes; every tick the unit-disk graph is
// rebuilt from the new positions and diffed against the previous one. The
// resulting link flips feed the incremental ChurnEngine, which repairs the
// clustering and backbone in place — re-election only for nodes that lost
// domination, gateway re-sweeps only for affected heads, never a full
// rebuild. A bit-exact audit against full recomputation runs every few
// ticks.
//
//   ./mobility_maintenance [N] [k] [ticks] [seed]
//
// A malformed or out-of-range number prints the usage line and exits 2.
#include <iostream>

#include "cli_args.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/exp/table.hpp"
#include "khop/net/generator.hpp"
#include "khop/net/mobility.hpp"

int main(int argc, char** argv) {
  using namespace khop;
  std::size_t n = 120;
  Hops k = 2;
  std::size_t ticks = 12;
  std::uint64_t seed = 99;
  if (!examples::parse_positional(argc, argv, n, k, ticks, seed)) {
    std::cerr << "usage: mobility_maintenance [N] [k] [ticks] [seed]\n";
    return 2;
  }

  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = 10.0;
  Rng rng(seed);
  AdHocNetwork net = generate_network(gen, rng);

  ChurnEngine engine(net.graph, k, Pipeline::kAcLmst);
  std::cout << "initial: " << net.num_nodes() << " nodes, "
            << engine.clustering().heads.size() << " clusterheads, "
            << engine.backbone().gateways.size() << " gateways\n\n";

  RandomWaypointConfig mob;
  mob.min_speed = 2.0;
  mob.max_speed = 6.0;
  RandomWaypointModel model(mob, net.num_nodes(), net.field, rng);

  TextTable t({"tick", "downs", "ups", "orphans", "new heads", "resweeps",
               "locality", "comps", "audit"});
  const std::size_t n_alive = net.num_nodes();
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    const Graph before = net.graph;
    model.step(net, rng);
    net.rebuild_graph();

    // The beacon layer's view of the tick: which links flipped.
    std::size_t downs = 0;
    std::size_t ups = 0;
    std::size_t orphans = 0;
    std::size_t new_heads = 0;
    std::size_t resweeps = 0;
    std::size_t touched = 0;
    for (const LinkFlip& f : diff_topology(before, net.graph)) {
      ChurnEvent e;
      e.type = f.up ? ChurnEventType::kLinkUp : ChurnEventType::kLinkDown;
      e.a = f.u;
      e.b = f.v;
      const ChurnEventReport rep = engine.apply(e);
      (f.up ? ups : downs) += 1;
      orphans += rep.orphans;
      new_heads += rep.new_heads;
      resweeps += rep.heads_resweeped;
      touched += rep.touched_nodes;
    }

    const bool audit_tick = tick % 3 == 0 || tick == ticks;
    std::string audit = "-";
    if (audit_tick) {
      const std::string err = engine.audit();
      audit = err.empty() ? "ok" : "FAIL: " + err;
    }
    // Repair locality: nodes touched per event over n (1.0 would mean every
    // event recomputed the whole network).
    const std::size_t flips = downs + ups;
    const double locality =
        flips == 0 ? 0.0
                   : static_cast<double>(touched) /
                         (static_cast<double>(flips) *
                          static_cast<double>(n_alive));
    t.add_row({std::to_string(tick), std::to_string(downs),
               std::to_string(ups), std::to_string(orphans),
               std::to_string(new_heads), std::to_string(resweeps),
               fmt(locality, 3), std::to_string(engine.num_components()),
               audit});
  }
  t.print(std::cout);

  const ChurnStats& s = engine.stats();
  const double reaffil =
      s.orphans == 0 ? 0.0
                     : static_cast<double>(s.reaffiliations) /
                           static_cast<double>(s.orphans);
  std::cout << "\n" << s.events << " link events, " << s.noop_events
            << " no-ops, " << s.partitions << " partitions, " << s.merges
            << " merges\nre-affiliation ratio " << fmt(reaffil, 3)
            << ", final backbone: " << engine.clustering().heads.size()
            << " heads + " << engine.backbone().gateways.size()
            << " gateways, full rebuilds: " << s.full_rebuilds << "\n";
  return 0;
}
