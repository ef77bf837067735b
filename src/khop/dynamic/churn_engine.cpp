#include "khop/dynamic/churn_engine.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/dynamic/churn_reference.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/trace.hpp"

namespace khop {

void ChurnStats::note_event(ChurnEventType type) noexcept {
  ++events;
  switch (type) {
    case ChurnEventType::kFail: ++fails; break;
    case ChurnEventType::kJoin: ++joins; break;
    case ChurnEventType::kLinkDown: ++link_downs; break;
    case ChurnEventType::kLinkUp: ++link_ups; break;
  }
}

void ChurnStats::note_report(const ChurnEventReport& report) noexcept {
  orphans += report.orphans;
  reaffiliations += report.reaffiliated;
  new_heads += report.new_heads;
  heads_resweeped += report.heads_resweeped;
  touched_nodes += report.touched_nodes;
}

void ChurnStats::publish() {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("churn.events").add(events - published.events);
  reg.counter("churn.fails").add(fails - published.fails);
  reg.counter("churn.joins").add(joins - published.joins);
  reg.counter("churn.link_downs").add(link_downs - published.link_downs);
  reg.counter("churn.link_ups").add(link_ups - published.link_ups);
  reg.counter("churn.noop_events").add(noop_events - published.noop_events);
  reg.counter("churn.full_rebuilds")
      .add(full_rebuilds - published.full_rebuilds);
  reg.counter("churn.orphans").add(orphans - published.orphans);
  reg.counter("churn.reaffiliations")
      .add(reaffiliations - published.reaffiliations);
  reg.counter("churn.new_heads").add(new_heads - published.new_heads);
  reg.counter("churn.heads_resweeped")
      .add(heads_resweeped - published.heads_resweeped);
  reg.counter("churn.touched_nodes")
      .add(touched_nodes - published.touched_nodes);
  reg.counter("churn.partitions").add(partitions - published.partitions);
  reg.counter("churn.merges").add(merges - published.merges);
  reg.counter("churn.audits").add(audits - published.audits);
  published = *this;
}

ChurnEngine::ChurnEngine(const Graph& g0, Hops k, Pipeline pipeline,
                         ChurnEngineOptions opts)
    : g_(g0),
      k_(k),
      horizon_(2 * k + 1),
      pipeline_(pipeline),
      spec_(spec_for(pipeline)),
      opts_(opts) {
  KHOP_REQUIRE(k >= 1, "k must be at least 1");
  KHOP_REQUIRE(pipeline != Pipeline::kGmst,
               "a global MST has no local repair scope; use an NC/AC pipeline");
  c_ = khop_clustering(g0, k, AffiliationRule::kIdBased);
  heads_ = c_.heads;
  member_pos_.assign(g_.capacity(), 0);
  for (NodeId v = 0; v < g_.capacity(); ++v) {
    auto& list = members_[c_.head_of[v]];
    member_pos_[v] = static_cast<std::uint32_t>(list.size());
    list.push_back(v);
  }
  HeadSweep sweep0 = sweep_heads(g0, c_, spec_.neighbor_rule, ws_);
  for (std::uint32_t i = 0; i < heads_.size(); ++i) {
    sel_[heads_[i]] = std::move(sweep0.sel.selected[i]);
  }
  links_ = std::move(sweep0.links);
  // Same contract as a restored engine: cluster_of and election_rounds
  // describe the initial election only and would go stale under churn.
  c_.cluster_of.clear();
  c_.election_rounds = 0;
  path_refs_.assign(g_.capacity(), 0);
  dirty_ = heads_;
  combine();
}

ChurnEngine ChurnEngine::restore(ChurnEngineRestore r,
                                 ChurnEngineOptions opts) {
  return ChurnEngine(RestoreTag{}, std::move(r), opts);
}

ChurnEngine::ChurnEngine(RestoreTag, ChurnEngineRestore r,
                         ChurnEngineOptions opts)
    : g_(std::move(r.graph)),
      k_(r.k),
      horizon_(2 * r.k + 1),
      pipeline_(r.pipeline),
      spec_(spec_for(r.pipeline)),
      opts_(opts),
      c_(std::move(r.clustering)),
      links_(std::move(r.links)),
      num_components_(r.num_components),
      stats_(r.stats) {
  KHOP_REQUIRE(k_ >= 1, "k must be at least 1");
  KHOP_REQUIRE(pipeline_ != Pipeline::kGmst,
               "a global MST has no local repair scope; use an NC/AC pipeline");
  const std::size_t cap = g_.capacity();
  KHOP_REQUIRE(c_.head_of.size() == cap && c_.dist_to_head.size() == cap,
               "restored clustering does not cover the id space");
  c_.k = k_;
  c_.cluster_of.clear();  // not maintained under churn; never persisted
  c_.election_rounds = 0;

  // Per-node sanity against the restored topology, then rebuild the member
  // lists (ascending id order; the engine's public behavior never depends on
  // member list order, see repair_* in this file).
  member_pos_.assign(cap, 0);
  for (NodeId v = 0; v < cap; ++v) {
    if (!g_.alive(v)) {
      KHOP_REQUIRE(c_.head_of[v] == kInvalidNode &&
                       c_.dist_to_head[v] == kUnreachable,
                   "restored dead node retains clustering state");
      continue;
    }
    const NodeId h = c_.head_of[v];
    KHOP_REQUIRE(h < cap && g_.alive(h) && c_.head_of[h] == h,
                 "restored node affiliated to a non-head");
    KHOP_REQUIRE(c_.dist_to_head[v] <= k_ && ((h == v) == (c_.dist_to_head[v] == 0)),
                 "restored head distance out of range");
    auto& list = members_[h];
    member_pos_[v] = static_cast<std::uint32_t>(list.size());
    list.push_back(v);
  }

  heads_.clear();
  for (NodeId v = 0; v < cap; ++v) {
    if (g_.alive(v) && c_.head_of[v] == v) heads_.push_back(v);
  }
  KHOP_REQUIRE(c_.heads == heads_, "restored head list out of sync");

  // Selections are symmetric and the link store holds exactly the selected
  // pairs (smaller endpoint first), so sel_ is fully derivable: every head
  // gets an entry (possibly empty), each link feeds both endpoints.
  for (NodeId h : heads_) sel_[h];
  for (const VirtualLink& l : links_.all()) {
    KHOP_REQUIRE(l.u < l.v, "restored virtual link endpoints unordered");
    const auto iu = sel_.find(l.u);
    const auto iv = sel_.find(l.v);
    KHOP_REQUIRE(iu != sel_.end() && iv != sel_.end(),
                 "restored virtual link endpoint is not a live head");
    // The gateway rules index node arrays by path ids: the path must be a
    // walk u..v over live edges, hops long, within the 2k+1 horizon.
    const std::span<const NodeId> path = links_.path(l);
    KHOP_REQUIRE(l.hops <= horizon_ && path.size() == l.hops + 1u &&
                     path.front() == l.u && path.back() == l.v,
                 "restored virtual link path malformed");
    for (std::size_t i = 1; i < path.size(); ++i) {
      KHOP_REQUIRE(path[i] < cap && g_.alive(path[i]) &&
                       g_.has_edge(path[i - 1], path[i]),
                   "restored virtual link path leaves the topology");
    }
    iu->second.push_back(l.v);
    iv->second.push_back(l.u);
  }
  for (auto& [h, list] : sel_) std::sort(list.begin(), list.end());

  path_refs_.assign(cap, 0);
  dirty_ = heads_;
  combine();
}

void ChurnEngine::touch(NodeId v, ChurnEventReport& report) {
  if (!touched_.test(v)) {
    touched_.set(v);
    ++report.touched_nodes;
  }
}

void ChurnEngine::detach_member(NodeId v) {
  auto& list = members_.at(c_.head_of[v]);
  const std::uint32_t i = member_pos_[v];
  list[i] = list.back();
  member_pos_[list[i]] = i;
  list.pop_back();
}

void ChurnEngine::attach_member(NodeId v, NodeId head, Hops dist) {
  auto& list = members_.at(head);
  member_pos_[v] = static_cast<std::uint32_t>(list.size());
  list.push_back(v);
  c_.head_of[v] = head;
  c_.dist_to_head[v] = dist;
}

void ChurnEngine::mark_from_seed(NodeId s, bool mark_k) {
  ws_.bfs.run(g_, s, horizon_);
  for (NodeId w : ws_.bfs.reached()) {
    if (c_.head_of[w] != w) continue;  // reached nodes are alive; heads only
    affected_H_.insert(w);
    if (mark_k && ws_.bfs.dist(w) <= k_) affected_k_.insert(w);
  }
}

bool ChurnEngine::probe_connected(NodeId a, NodeId b) {
  ws_.bfs.run(g_, a, opts_.probe_horizon);
  if (ws_.bfs.dist(b) != kUnreachable) return true;
  ws_.bfs.run(g_, a, kUnreachable);
  return ws_.bfs.dist(b) != kUnreachable;
}

std::size_t ChurnEngine::count_groups(const std::vector<NodeId>& nodes) {
  if (nodes.size() <= 1) return nodes.size();
  // Cheap common case: one bounded probe reaches every node -> one group.
  ws_.bfs.run(g_, nodes.front(), opts_.probe_horizon);
  bool all = true;
  for (NodeId v : nodes) {
    if (ws_.bfs.dist(v) == kUnreachable) {
      all = false;
      break;
    }
  }
  if (all) return 1;
  std::vector<NodeId> remaining(nodes);
  std::sort(remaining.begin(), remaining.end());
  std::size_t groups = 0;
  while (!remaining.empty()) {
    ws_.bfs.run(g_, remaining.front(), kUnreachable);
    std::erase_if(remaining,
                  [&](NodeId v) { return ws_.bfs.dist(v) != kUnreachable; });
    ++groups;
  }
  return groups;
}

void ChurnEngine::drop_dead_head(NodeId h) {
  const auto it = sel_.find(h);
  if (it != sel_.end()) {
    dirty_.push_back(h);
    dirty_.insert(dirty_.end(), it->second.begin(), it->second.end());
    for (NodeId v : it->second) {
      retire_link(std::min(h, v), std::max(h, v));
      links_.erase(std::min(h, v), std::max(h, v));
    }
    sel_.erase(it);
  }
  const auto pos = std::lower_bound(heads_.begin(), heads_.end(), h);
  KHOP_ASSERT(pos != heads_.end() && *pos == h, "dead head not in heads_");
  heads_.erase(pos);
}

ChurnEventReport ChurnEngine::apply(const ChurnEvent& e) {
  check_event(g_, e);  // before anything is counted or changed
  ChurnEventReport report;
  stats_.note_event(e.type);
  obs::Span span("churn/event");
  span.arg("type", static_cast<std::int64_t>(e.type));
  affected_k_.clear();
  affected_H_.clear();
  touched_.begin(g_.capacity());

  if (e.type == ChurnEventType::kLinkDown) {
    report.structural_noop = !g_.has_edge(e.a, e.b);
  } else if (e.type == ChurnEventType::kLinkUp) {
    report.structural_noop = g_.has_edge(e.a, e.b);
  }
  if (report.structural_noop) {
    ++stats_.noop_events;
    return report;
  }

  std::vector<NodeId> orphans;
  std::vector<NodeId> former;  // kFail: neighbors at the instant of death

  // Pre-mutation: seed sweeps on the OLD topology for removals (distance
  // increases travel along paths that existed before the cut), and
  // component pre-checks for additive events (connectivity without the new
  // element).
  switch (e.type) {
    case ChurnEventType::kFail: {
      const auto nb = g_.neighbors(e.a);
      former.assign(nb.begin(), nb.end());
      mark_from_seed(e.a, /*mark_k=*/true);
      break;
    }
    case ChurnEventType::kLinkDown:
      mark_from_seed(e.a, /*mark_k=*/true);
      mark_from_seed(e.b, /*mark_k=*/true);
      break;
    case ChurnEventType::kLinkUp:
      if (!probe_connected(e.a, e.b)) {
        --num_components_;
        ++stats_.merges;
        report.component_delta = -1;
      }
      break;
    case ChurnEventType::kJoin: {
      const std::size_t groups = count_groups(e.neighbors);
      report.component_delta = 1 - static_cast<int>(groups);
      num_components_ =
          static_cast<std::size_t>(static_cast<long long>(num_components_) +
                                   report.component_delta);
      if (groups > 1) stats_.merges += groups - 1;
      break;
    }
  }

  apply_event(g_, e);

  // Post-mutation: component accounting for removals (grouping needs the
  // NEW topology) and seed sweeps for additive events (distance decreases
  // travel along paths that exist only now).
  switch (e.type) {
    case ChurnEventType::kFail: {
      const int delta =
          former.empty() ? -1
                         : static_cast<int>(count_groups(former)) - 1;
      num_components_ = static_cast<std::size_t>(
          static_cast<long long>(num_components_) + delta);
      report.component_delta = delta;
      if (delta > 0) stats_.partitions += static_cast<std::size_t>(delta);
      break;
    }
    case ChurnEventType::kLinkDown:
      if (!probe_connected(e.a, e.b)) {
        ++num_components_;
        ++stats_.partitions;
        report.component_delta = 1;
      }
      break;
    case ChurnEventType::kLinkUp:
      mark_from_seed(e.a, /*mark_k=*/true);
      mark_from_seed(e.b, /*mark_k=*/true);
      break;
    case ChurnEventType::kJoin:
      mark_from_seed(e.a, /*mark_k=*/true);
      break;
  }

  // Membership bookkeeping for the event's own vertex.
  if (e.type == ChurnEventType::kFail) {
    if (c_.head_of[e.a] == e.a) {
      // A head died: all its members are orphans; retire its selection and
      // owned links (surviving peers re-sweep via the pre-mutation marks).
      std::vector<NodeId> ms = std::move(members_.at(e.a));
      members_.erase(e.a);
      for (NodeId m : ms) {
        if (m == e.a) continue;
        c_.head_of[m] = kInvalidNode;
        c_.dist_to_head[m] = kUnreachable;
        orphans.push_back(m);
      }
      drop_dead_head(e.a);
    } else {
      detach_member(e.a);
    }
    c_.head_of[e.a] = kInvalidNode;
    c_.dist_to_head[e.a] = kUnreachable;
    affected_k_.erase(e.a);
    affected_H_.erase(e.a);
  } else if (e.type == ChurnEventType::kJoin) {
    c_.head_of[e.a] = kInvalidNode;
    c_.dist_to_head[e.a] = kUnreachable;
    orphans.push_back(e.a);
  }

  repair_distances(orphans, report);
  repair_affiliations(orphans, report);
  resweep_heads(report);
  report.lmst_heads = combine();

  stats_.note_report(report);
  span.arg("orphans", static_cast<std::int64_t>(report.orphans));
  span.arg("heads_resweeped",
           static_cast<std::int64_t>(report.heads_resweeped));
  span.arg("lmst_heads", static_cast<std::int64_t>(report.lmst_heads));
  span.arg("touched", static_cast<std::int64_t>(report.touched_nodes));
  if (obs::enabled()) {
    // Per-event repair distributions; touched / n is the event's repair
    // locality (the locality denominator is exported as churn.alive_nodes).
    obs::Registry& reg = obs::Registry::global();
    reg.histogram("churn.repair_touched").record(report.touched_nodes);
    reg.histogram("churn.resweep_heads").record(report.heads_resweeped);
    reg.histogram("churn.lmst_heads").record(report.lmst_heads);
    reg.histogram("churn.event_orphans").record(report.orphans);
    reg.gauge("churn.alive_nodes")
        .set(static_cast<std::int64_t>(g_.num_alive()));
  }
  return report;
}

void ChurnEngine::repair_distances(std::vector<NodeId>& orphans,
                                   ChurnEventReport& report) {
  std::vector<NodeId> hs(affected_k_.begin(), affected_k_.end());
  std::sort(hs.begin(), hs.end());
  std::vector<NodeId> to_orphan;
  for (NodeId h : hs) {
    if (!is_live_head(h)) continue;
    ws_.bfs.run(g_, h, k_);
    to_orphan.clear();
    for (NodeId m : members_.at(h)) {
      if (m == h) continue;
      touch(m, report);
      const Hops d = ws_.bfs.dist(m);
      if (d == kUnreachable) {
        to_orphan.push_back(m);  // pushed beyond k (or cut off entirely)
      } else {
        c_.dist_to_head[m] = d;
      }
    }
    for (NodeId m : to_orphan) {
      detach_member(m);
      c_.head_of[m] = kInvalidNode;
      c_.dist_to_head[m] = kUnreachable;
      orphans.push_back(m);
    }
  }
}

void ChurnEngine::repair_affiliations(std::vector<NodeId>& orphans,
                                      ChurnEventReport& report) {
  if (orphans.empty()) return;
  std::sort(orphans.begin(), orphans.end());
  report.orphans = orphans.size();

  // Adoption: the current heads are exactly the pre-event survivors
  // (election has not run yet). reached() is (distance, id)-ordered, so the
  // first head hit is the policy's adoption target.
  std::vector<NodeId> undecided;
  for (NodeId u : orphans) {
    touch(u, report);
    ws_.bfs.run(g_, u, k_);
    NodeId adopted = kInvalidNode;
    for (NodeId w : ws_.bfs.reached()) {
      if (w != u && is_live_head(w)) {
        adopted = w;
        break;
      }
    }
    if (adopted != kInvalidNode) {
      attach_member(u, adopted, ws_.bfs.dist(adopted));
      ++report.reaffiliated;
    } else {
      undecided.push_back(u);
    }
  }

  // Iterative lowest-id election among the rest (partitioned groups elect
  // independently: the k-bounded sweeps never cross a component boundary).
  std::unordered_set<NodeId> undecided_set(undecided.begin(), undecided.end());
  while (!undecided.empty()) {
    std::vector<NodeId> winners;
    for (NodeId u : undecided) {
      ws_.bfs.run(g_, u, k_);
      bool wins = true;
      for (NodeId w : ws_.bfs.reached()) {
        if (w != u && w < u && undecided_set.contains(w)) {
          wins = false;
          break;
        }
      }
      if (wins) winners.push_back(u);
    }
    KHOP_ASSERT(!winners.empty(), "election round produced no winner");
    const std::unordered_set<NodeId> winner_set(winners.begin(),
                                                winners.end());
    for (NodeId w : winners) {
      c_.head_of[w] = w;
      c_.dist_to_head[w] = 0;
      heads_.insert(std::lower_bound(heads_.begin(), heads_.end(), w), w);
      member_pos_[w] = 0;
      members_[w] = {w};
      undecided_set.erase(w);
      ++report.new_heads;
    }
    std::vector<NodeId> next;
    for (NodeId u : undecided) {
      if (winner_set.contains(u)) continue;
      ws_.bfs.run(g_, u, k_);
      NodeId joined = kInvalidNode;
      for (NodeId w : ws_.bfs.reached()) {
        if (w != u && winner_set.contains(w)) {
          joined = w;
          break;
        }
      }
      if (joined != kInvalidNode) {
        attach_member(u, joined, ws_.bfs.dist(joined));
        undecided_set.erase(u);
        ++report.reaffiliated;
      } else {
        next.push_back(u);
      }
    }
    undecided = std::move(next);
  }

  // Pass B: membership and head-set changes shift selection witnesses, so
  // every re-affiliated node and new head seeds a selection-scope mark.
  for (NodeId u : orphans) mark_from_seed(u, /*mark_k=*/false);
}

void ChurnEngine::resweep_one(NodeId h) {
  std::vector<NodeId> old_sel = std::move(sel_[h]);  // creates for new heads
  ws_.bfs.run(g_, h, horizon_);

  std::vector<NodeId> nsel;
  if (spec_.neighbor_rule == NeighborRule::kAllWithin2k1) {
    // Exactly the canonical per-head sweep of gateway/head_sweep.cpp.
    for (NodeId w : ws_.bfs.reached()) {
      if (w != h && c_.head_of[w] == w) nsel.push_back(w);
    }
    std::sort(nsel.begin(), nsel.end());
  } else {
    // A-NCR: heads of clusters adjacent to h's cluster. Every witness edge
    // has one endpoint among h's members, so a member edge scan finds all.
    for (NodeId m : members_.at(h)) {
      for (NodeId y : g_.neighbors(m)) {
        const NodeId h2 = c_.head_of[y];
        if (h2 != h) nsel.push_back(h2);
      }
    }
    std::sort(nsel.begin(), nsel.end());
    nsel.erase(std::unique(nsel.begin(), nsel.end()), nsel.end());
  }

  // Upsert the links this head owns (smaller endpoint). Strict domination
  // keeps every selected pair within 2k+1 hops, so the bounded sweep always
  // reaches the target.
  for (NodeId v : nsel) {
    if (v <= h) continue;
    KHOP_ASSERT(ws_.bfs.dist(v) != kUnreachable,
                "selected head beyond the 2k+1 horizon");
    ws_.node_buf.clear();
    ws_.bfs.append_path(v, ws_.node_buf);
    retire_link(h, v);
    links_.insert(h, v, ws_.bfs.dist(v), ws_.node_buf);
  }
  // Selection changes are symmetric, so a dropped pair is seen (and safely
  // erased, possibly twice) by whichever endpoint re-sweeps.
  for (NodeId v : old_sel) {
    if (!std::binary_search(nsel.begin(), nsel.end(), v)) {
      retire_link(std::min(h, v), std::max(h, v));
      links_.erase(std::min(h, v), std::max(h, v));
    }
  }
  // h's local virtual graph changed, and so may those of every head that
  // has h in its selection, before or after.
  dirty_.push_back(h);
  dirty_.insert(dirty_.end(), old_sel.begin(), old_sel.end());
  dirty_.insert(dirty_.end(), nsel.begin(), nsel.end());
  sel_[h] = std::move(nsel);
}

void ChurnEngine::resweep_heads(ChurnEventReport& report) {
  std::vector<NodeId> hs(affected_H_.begin(), affected_H_.end());
  std::sort(hs.begin(), hs.end());
  for (NodeId h : hs) {
    if (!is_live_head(h)) continue;
    touch(h, report);
    resweep_one(h);
    ++report.heads_resweeped;
  }
}

void ChurnEngine::retire_link(NodeId a, NodeId b) {
  // A realized link whose path is about to be replaced or dropped gives up
  // its path counts now. Both endpoints are dirty, so combine() re-settles
  // the pair against the new state.
  const std::pair p(a, b);
  const auto it = std::lower_bound(kept_links_.begin(), kept_links_.end(), p);
  if (it == kept_links_.end() || *it != p) return;
  kept_links_.erase(it);
  count_path(links_.link(a, b), /*add=*/false);
}

void ChurnEngine::count_path(const VirtualLink& l, bool add) {
  for (const NodeId w : links_.interior(l)) {
    const auto pos = std::lower_bound(interior_.begin(), interior_.end(), w);
    if (add) {
      if (path_refs_[w]++ == 0) interior_.insert(pos, w);
    } else if (--path_refs_[w] == 0) {
      interior_.erase(pos);
    }
  }
}

bool ChurnEngine::keeps(NodeId h, NodeId v) const {
  const auto it = keep_.find(h);
  return it != keep_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), v);
}

void ChurnEngine::settle(std::pair<NodeId, NodeId> p) {
  const bool fwd = keeps(p.first, p.second);
  const bool rev = keeps(p.second, p.first);
  const bool want = spec_.lmst_keep == LmstKeepRule::kBothEndpoints
                        ? fwd && rev
                        : fwd || rev;
  const auto it = std::lower_bound(kept_links_.begin(), kept_links_.end(), p);
  const bool have = it != kept_links_.end() && *it == p;
  if (want == have) return;
  if (want) {
    kept_links_.insert(it, p);
  } else {
    kept_links_.erase(it);
  }
  count_path(links_.link(p.first, p.second), want);
}

std::size_t ChurnEngine::combine() {
  c_.heads = heads_;
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());

  // Recompute each dirty head's keep list, and re-settle every pair it
  // kept before or keeps now (settle() is a no-op for unchanged pairs).
  const auto note_pairs = [this](NodeId h, const std::vector<NodeId>& vs) {
    for (NodeId v : vs) changed_.emplace_back(std::min(h, v), std::max(h, v));
  };
  std::size_t recomputed = 0;
  for (NodeId h : dirty_) {
    std::vector<NodeId>& kept = keep_[h];
    note_pairs(h, kept);
    if (!is_live_head(h)) {
      keep_.erase(h);
      continue;
    }
    const std::vector<NodeId>& s = sel_.at(h);
    if (spec_.gateway == GatewayAlgorithm::kMesh) {
      kept = s;
    } else {
      lmst_.keep_list(
          h, s, [this](NodeId a, NodeId b) { return links_.hops(a, b); },
          kept);
    }
    note_pairs(h, kept);
    ++recomputed;
  }

  std::sort(changed_.begin(), changed_.end());
  changed_.erase(std::unique(changed_.begin(), changed_.end()),
                 changed_.end());
  for (const auto& p : changed_) settle(p);
  dirty_.clear();
  changed_.clear();

  backbone_.pipeline = pipeline_;
  backbone_.spec = spec_;
  backbone_.heads = c_.heads;
  backbone_.virtual_links.assign(kept_links_.begin(), kept_links_.end());
  backbone_.gateways.clear();
  for (NodeId w : interior_) {
    if (!is_live_head(w)) backbone_.gateways.push_back(w);
  }
  return recomputed;
}

std::size_t ChurnEngine::run(const ChurnTrace& trace) {
  std::size_t applied = 0;
  for (const ChurnEvent& e : trace.events()) {
    apply(e);
    ++applied;
    if (opts_.audit_every != 0 && applied % opts_.audit_every == 0) {
      const std::string s = audit();
      if (!s.empty()) {
        throw InvariantViolation("churn audit failed after event " +
                                 std::to_string(applied) + ": " + s);
      }
    }
  }
  const std::string s = audit();
  if (!s.empty()) throw InvariantViolation("final churn audit failed: " + s);
  return applied;
}

std::string ChurnEngine::audit() {
  ++stats_.audits;
  obs::Span span("churn/audit");
  if (std::string s = g_.check_consistency(); !s.empty()) return s;
  const std::size_t cap = g_.capacity();

  std::vector<NodeId> expect_heads;
  for (NodeId v = 0; v < cap; ++v) {
    if (g_.alive(v)) {
      if (c_.head_of[v] == kInvalidNode) return "alive node without a head";
      if (c_.head_of[v] == v) expect_heads.push_back(v);
    } else if (c_.head_of[v] != kInvalidNode ||
               c_.dist_to_head[v] != kUnreachable) {
      return "dead node retains clustering state";
    }
  }
  if (expect_heads != heads_) return "heads_ out of sync with head_of";
  if (c_.heads != heads_) return "clustering heads out of sync";

  if (members_.size() != heads_.size()) return "member list count mismatch";
  std::size_t member_count = 0;
  for (const auto& [h, list] : members_) {
    if (!is_live_head(h)) return "member list kept for a non-head";
    for (std::uint32_t i = 0; i < list.size(); ++i) {
      const NodeId v = list[i];
      if (!g_.alive(v) || c_.head_of[v] != h || member_pos_[v] != i) {
        return "member list corrupt";
      }
    }
    member_count += list.size();
  }
  if (member_count != g_.num_alive()) {
    return "member lists do not partition the alive nodes";
  }

  // Exact distances + strict domination, against fresh k-bounded BFS.
  for (NodeId h : heads_) {
    ws_.bfs.run(g_, h, k_);
    for (NodeId m : members_.at(h)) {
      const Hops d = ws_.bfs.dist(m);
      if (d == kUnreachable) return "member beyond k of its head";
      if (c_.dist_to_head[m] != d) return "stale dist_to_head";
    }
  }

  // Selection state vs direct recomputation.
  if (sel_.size() != heads_.size()) return "selection map size mismatch";
  if (spec_.neighbor_rule == NeighborRule::kAllWithin2k1) {
    for (NodeId h : heads_) {
      ws_.bfs.run(g_, h, horizon_);
      std::vector<NodeId> want;
      for (NodeId w : ws_.bfs.reached()) {
        if (w != h && c_.head_of[w] == w) want.push_back(w);
      }
      std::sort(want.begin(), want.end());
      if (sel_.at(h) != want) return "stale NC selection";
    }
  } else {
    std::unordered_map<NodeId, std::vector<NodeId>> want;
    for (NodeId u = 0; u < cap; ++u) {
      for (NodeId v : g_.neighbors(u)) {
        if (u >= v) continue;
        const NodeId hu = c_.head_of[u];
        const NodeId hv = c_.head_of[v];
        if (hu == hv) continue;
        want[hu].push_back(hv);
        want[hv].push_back(hu);
      }
    }
    for (NodeId h : heads_) {
      auto& list = want[h];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      if (sel_.at(h) != list) return "stale AC selection";
    }
  }

  // Virtual links: exactly the selected pairs, each with the canonical
  // bounded shortest path.
  std::size_t pair_count = 0;
  for (NodeId h : heads_) {
    for (NodeId v : sel_.at(h)) {
      if (v <= h) continue;
      ++pair_count;
      if (!links_.contains(h, v)) return "missing virtual link";
    }
  }
  if (links_.all().size() != pair_count) return "stale virtual links";
  for (const VirtualLink& l : links_.all()) {
    if (!is_live_head(l.u) || !is_live_head(l.v)) {
      return "virtual link endpoint is not a live head";
    }
    ws_.bfs.run(g_, l.u, horizon_);
    if (ws_.bfs.dist(l.v) != l.hops) return "virtual link hops not shortest";
    ws_.node_buf.clear();
    ws_.bfs.append_path(l.v, ws_.node_buf);
    if (!std::ranges::equal(ws_.node_buf, links_.path(l))) {
      return "virtual link path not canonical";
    }
  }

  // The final backbone vs a per-component full recompute (the PR 3-5
  // oracle discipline extended to churn state).
  const Backbone oracle =
      rebuild_backbone_oracle(g_, k_, c_.head_of, pipeline_);
  if (backbone_.heads != oracle.heads) return "backbone heads diverge";
  if (backbone_.gateways != oracle.gateways) {
    return "backbone gateways diverge from full recompute";
  }
  if (backbone_.virtual_links != oracle.virtual_links) {
    return "backbone kept links diverge from full recompute";
  }
  return {};
}

}  // namespace khop
