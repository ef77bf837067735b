#include "khop/sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/rng.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {

namespace {

/// Destination-chunk granularity for the parallel executor. parallel_for
/// hands the chunks to the workers one at a time, so chunk count mainly
/// bounds outbox count; a small multiple of the worker count keeps
/// per-chunk merge state cheap while letting uneven inbox mass spread.
constexpr std::size_t kChunksPerThread = 4;

std::size_t chunk_count(std::size_t items, ThreadPool& pool) {
  return std::min(items, std::max<std::size_t>(1, pool.num_threads() *
                                                      kChunksPerThread));
}

/// Half-open subrange [lo, hi) of chunk \p c out of \p chunks over
/// [0, items): same arithmetic as parallel_blocks.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t items,
                                                std::size_t chunks,
                                                std::size_t c) {
  const std::size_t lo = items * c / chunks;
  const std::size_t hi = items * (c + 1) / chunks;
  return {lo, hi};
}

}  // namespace

std::uint64_t delivery_key(std::uint64_t seed, std::size_t round, NodeId from,
                           NodeId to, std::size_t seq,
                           std::size_t attempt) noexcept {
  // One splitmix64 step per 64-bit word, chained: (from, to) and
  // (seq, attempt) each pack into one word without overlap.
  std::uint64_t h = seed;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(round),
        (static_cast<std::uint64_t>(from) << 32) | to,
        (static_cast<std::uint64_t>(seq) << 32) | attempt}) {
    h ^= word;
    h = splitmix64(h);
  }
  return h;
}

std::size_t NodeContext::round() const noexcept { return engine_->round_; }

std::span<const NodeId> NodeContext::neighbors() const {
  return engine_->graph_->neighbors(id_);
}

void NodeContext::broadcast(std::uint16_t type,
                            std::span<const std::int64_t> data) {
  if (sink_ != nullptr) {
    // Parallel chunk: record once; the engine replays the stats and
    // recording serially in node order.
    sink_->sends.push_back(detail::RawSend{id_, kInvalidNode, type,
                                           sink_->arena.intern(data)});
    return;
  }
  engine_->record_broadcast(
      id_, type, engine_->arenas_[engine_->write_].intern(data));
}

void NodeContext::send(NodeId to, std::uint16_t type,
                       std::span<const std::int64_t> data) {
  KHOP_REQUIRE(engine_->graph_->has_edge(id_, to),
               "addressed send target is not a neighbor");
  if (sink_ != nullptr) {
    sink_->sends.push_back(
        detail::RawSend{id_, to, type, sink_->arena.intern(data)});
    return;
  }
  engine_->record_send(id_, to, type,
                       engine_->arenas_[engine_->write_].intern(data));
}

SyncEngine::SyncEngine(const Graph& g, const AgentFactory& factory,
                       const DeliveryOptions& delivery)
    : graph_(&g), delivery_(delivery), factory_(factory) {
  KHOP_REQUIRE(static_cast<bool>(factory_), "agent factory required");
  const std::size_t n = g.num_nodes();
  for (unsigned side = 0; side < 2; ++side) {
    rec_count_[side].assign(n, 0);
    sends_[side].resize(n);
  }
  rec_begin_.assign(n, 0);
  rec_cursor_.assign(n, 0);
  dest_stamp_.assign(n, 0);
  create_agents();
}

NodeAgent& SyncEngine::agent(NodeId v) {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

const NodeAgent& SyncEngine::agent(NodeId v) const {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

bool SyncEngine::agents_finished() const {
  return std::all_of(
      agents_.begin(), agents_.end(),
      [](const std::unique_ptr<NodeAgent>& a) { return a->finished(); });
}

void SyncEngine::create_agents() {
  agents_.resize(graph_->num_nodes());
  for (NodeId v = 0; v < agents_.size(); ++v) {
    agents_[v] = factory_(v);
    KHOP_REQUIRE(agents_[v] != nullptr, "factory returned null agent");
  }
}

void SyncEngine::record_broadcast(NodeId from, std::uint16_t type,
                                  PayloadView payload) {
  stats_.note_transmission(payload.size());
  // A broadcast with no receivers is a radio transmission (counted above)
  // but schedules nothing: recording it would keep the write side non-empty
  // and cost an extra round the reference engine never runs.
  if (graph_->neighbors(from).empty()) return;
  // One record per broadcast: every receiver's delivery aliases the same
  // interned words.
  if (rec_count_[write_][from]++ == 0) bcast_senders_[write_].push_back(from);
  bcast_log_[write_].push_back(detail::SendRec{from, type, payload});
}

void SyncEngine::record_send(NodeId from, NodeId to, std::uint16_t type,
                             PayloadView payload) {
  stats_.note_transmission(payload.size());
  std::vector<detail::SendRec>& list = sends_[write_][to];
  if (list.empty()) send_dests_[write_].push_back(to);
  list.push_back(detail::SendRec{from, type, payload});
}

void SyncEngine::clear_fast_side(unsigned side) noexcept {
  for (NodeId s : bcast_senders_[side]) rec_count_[side][s] = 0;
  bcast_senders_[side].clear();
  bcast_log_[side].clear();
  for (NodeId d : send_dests_[side]) sends_[side][d].clear();
  send_dests_[side].clear();
}

void SyncEngine::prepare_fast_round(unsigned read) {
  // Group the read-side broadcast log by ascending sender with a counting
  // scatter (the counts were maintained at record time), then sort each
  // sender's contiguous range: record order is a handler artifact, and the
  // canonical inbox order needs (type, payload) within each sender. Every
  // receiver replays the same sorted ranges.
  std::sort(bcast_senders_[read].begin(), bcast_senders_[read].end());
  std::uint32_t ofs = 0;
  for (NodeId s : bcast_senders_[read]) {
    rec_begin_[s] = ofs;
    rec_cursor_[s] = ofs;
    ofs += rec_count_[read][s];
  }
  flat_recs_.resize(bcast_log_[read].size());
  for (const detail::SendRec& e : bcast_log_[read]) {
    flat_recs_[rec_cursor_[e.sender]++] = detail::BcastRec{e.type, e.data};
  }
  for (NodeId s : bcast_senders_[read]) {
    if (rec_count_[read][s] > 1) {
      std::sort(flat_recs_.begin() + rec_begin_[s],
                flat_recs_.begin() + rec_cursor_[s],
                [](const detail::BcastRec& a, const detail::BcastRec& b) {
                  return std::tie(a.type, a.data) < std::tie(b.type, b.data);
                });
    }
  }
  for (NodeId d : send_dests_[read]) {
    std::vector<detail::SendRec>& sd = sends_[read][d];
    if (sd.size() > 1) {
      std::sort(sd.begin(), sd.end(),
                [](const detail::SendRec& a, const detail::SendRec& b) {
                  return std::tie(a.sender, a.type, a.data) <
                         std::tie(b.sender, b.type, b.data);
                });
    }
  }

  // Receiver set: every broadcaster's neighborhood plus every addressed
  // destination, deduplicated with epoch stamps, ascending.
  if (dest_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(dest_stamp_.begin(), dest_stamp_.end(), 0);
    dest_epoch_ = 0;
  }
  ++dest_epoch_;
  dests_.clear();
  for (NodeId s : bcast_senders_[read]) {
    for (NodeId v : graph_->neighbors(s)) {
      if (dest_stamp_[v] != dest_epoch_) {
        dest_stamp_[v] = dest_epoch_;
        dests_.push_back(v);
      }
    }
  }
  for (NodeId d : send_dests_[read]) {
    if (dest_stamp_[d] != dest_epoch_) {
      dest_stamp_[d] = dest_epoch_;
      dests_.push_back(d);
    }
  }
  std::sort(dests_.begin(), dests_.end());
}

bool SyncEngine::link_delivers(NodeId from, NodeId to, std::size_t seq,
                               SimStats& tally) const {
  const DeliveryModel& model = *delivery_.model;
  for (std::size_t attempt = 0;; ++attempt) {
    if (model.attempt(from, to,
                      delivery_key(model.seed(), round_, from, to, seq,
                                   attempt))) {
      return true;
    }
    if (attempt == delivery_.retry_budget) {
      ++tally.drops;
      return false;
    }
    ++tally.retransmissions;
  }
}

template <bool kLossy>
void SyncEngine::deliver_fast_to(NodeId d, unsigned read, NodeContext& ctx,
                                 SimStats& tally,
                                 std::vector<detail::BcastRec>& scratch) {
  const std::vector<detail::SendRec>& sd = sends_[read][d];
  std::size_t si = 0;
  NodeAgent& agent = *agents_[d];
  const std::uint32_t* counts = rec_count_[read].data();
  // Hands the seq-th message of this round's s -> d group to the agent.
  const auto deliver = [&](NodeId s, std::size_t seq, std::uint16_t type,
                           PayloadView data) {
    if constexpr (kLossy) {
      if (!link_delivers(s, d, seq, tally)) return;
    }
    ++tally.receptions;
    agent.on_message(ctx, Message{s, type, data});
  };
  for (NodeId s : graph_->neighbors(d)) {
    // rec_begin_ is only meaningful when the count != 0 (stale otherwise),
    // so the range pointer is formed after the count check.
    const std::uint32_t cnt = counts[s];
    // sd is sorted by sender and every send sender is a neighbor of d, so
    // walking d's ascending adjacency consumes it in one pass.
    const std::size_t s_begin = si;
    while (si < sd.size() && sd[si].sender == s) ++si;
    if (si == s_begin) {
      const detail::BcastRec* bs =
          cnt != 0 ? flat_recs_.data() + rec_begin_[s] : nullptr;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        deliver(s, i, bs[i].type, bs[i].data);
      }
      continue;
    }
    if (cnt == 0) {
      for (std::size_t i = s_begin; i < si; ++i) {
        deliver(s, i - s_begin, sd[i].type, sd[i].data);
      }
      continue;
    }
    // Rare: s both broadcast and addressed d this round; merge the two
    // (type, payload)-sorted groups.
    const detail::BcastRec* bs = flat_recs_.data() + rec_begin_[s];
    scratch.clear();
    scratch.insert(scratch.end(), bs, bs + cnt);
    for (std::size_t i = s_begin; i < si; ++i) {
      scratch.push_back(detail::BcastRec{sd[i].type, sd[i].data});
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const detail::BcastRec& a, const detail::BcastRec& b) {
                return std::tie(a.type, a.data) < std::tie(b.type, b.data);
              });
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      deliver(s, i, scratch[i].type, scratch[i].data);
    }
  }
  KHOP_ASSERT(si == sd.size(), "send from non-neighbor in inbox assembly");
}

void SyncEngine::flush_outboxes(std::size_t used) {
  for (std::size_t c = 0; c < used; ++c) {
    detail::EngineOutbox& out = outboxes_[c];
    stats_.receptions += out.tally.receptions;
    stats_.drops += out.tally.drops;
    stats_.retransmissions += out.tally.retransmissions;
    for (const detail::RawSend& s : out.sends) {
      if (s.to == kInvalidNode) {
        record_broadcast(s.from, s.type, s.data);
      } else {
        record_send(s.from, s.to, s.type, s.data);
      }
    }
    // Replayed views alias this chunk's arena: move it (addresses stable)
    // into the write side's store instead of copying every payload again.
    if (out.arena.num_blocks() > 0) adopted_.adopt(out.arena, write_);
    out.reset();
  }
}

void SyncEngine::reset_for_run() {
  if (ran_) {
    // Re-entry: fresh agents so every run is an independent execution. (The
    // pre-PR5 engine reset only round_, accumulating stats and replaying
    // stale in-flight messages whose views pointed into never-cleared
    // arenas.)
    create_agents();
  }
  ran_ = true;
  stats_ = SimStats{};
  round_ = 0;
  write_ = 0;
  arenas_[0].clear();
  arenas_[1].clear();
  clear_fast_side(0);
  clear_fast_side(1);
  // Outboxes are normally drained by flush_outboxes, but an exception that
  // escaped a parallel phase leaves completed chunks' recordings behind;
  // they must not replay into this run. Likewise any unmerged telemetry
  // samples from an abandoned run must not leak into this one.
  for (detail::EngineOutbox& out : outboxes_) {
    out.reset();
    out.inbox_sizes.clear();
  }
  adopted_.reset();
}

bool SyncEngine::run(std::size_t max_rounds, Exec exec) {
  ThreadPool* const pool = exec.pool;
  reset_for_run();

  // Observational only: the span, the cached histogram pointer, and every
  // record below never feed back into delivery order or agent state, so the
  // run is bit-identical with telemetry on or off.
  obs::Span run_span("engine/run");
  const bool tel = obs::enabled();
  obs::Histogram* inbox_hist =
      tel ? &obs::Registry::global().histogram("engine.inbox_size") : nullptr;
  // Inbox sizes batch into plain-memory accumulators (serial: this one;
  // parallel: one per chunk outbox, merged below) and fold into the sharded
  // histogram once at end of run — the delivery loops never pay TLS or
  // atomic traffic per destination.
  obs::LocalHistogram inbox_local;
  const auto merge_outbox_samples = [&] {
    if (inbox_hist == nullptr) return;
    for (detail::EngineOutbox& out : outboxes_) {
      inbox_local.merge(out.inbox_sizes);
    }
  };

  const std::size_t n = graph_->num_nodes();
  // Parallel phase runner: work items [0, items) chunked across the pool,
  // each chunk recording into its own outbox, merged in ascending chunk
  // (= node) order. Both parallel phases (on_start / on_round_end, and
  // delivery) share it so the chunking arithmetic and flush ordering cannot
  // diverge.
  const auto chunked_phase = [&](std::size_t items, auto&& body) {
    const std::size_t chunks = chunk_count(items, *pool);
    if (outboxes_.size() < chunks) outboxes_.resize(chunks);
    parallel_for(*pool, chunks, [&](std::size_t c) {
      const auto [lo, hi] = chunk_range(items, chunks, c);
      for (std::size_t i = lo; i < hi; ++i) body(i, outboxes_[c]);
    });
    flush_outboxes(chunks);
  };

  // Phase runner for the two all-nodes callbacks (on_start, on_round_end):
  // serial in ascending node order, or chunked across the pool with the
  // per-chunk outboxes merged in that same order.
  const auto all_nodes_phase = [&](auto&& callback) {
    if (pool == nullptr) {
      for (NodeId v = 0; v < n; ++v) {
        NodeContext ctx(*this, v);
        callback(v, ctx);
      }
      return;
    }
    chunked_phase(n, [&](std::size_t v, detail::EngineOutbox& out) {
      NodeContext ctx(*this, static_cast<NodeId>(v), &out);
      callback(static_cast<NodeId>(v), ctx);
    });
  };

  all_nodes_phase(
      [&](NodeId v, NodeContext& ctx) { agents_[v]->on_start(ctx); });

  bool quiesced = false;
  while (round_ < max_rounds) {
    // Quiescence check at the round boundary.
    if (write_side_empty() && agents_finished()) {
      quiesced = true;
      break;
    }

    ++round_;
    ++stats_.rounds;
    obs::Span round_span("engine/round");
    const std::size_t round_rx0 = stats_.receptions;
    const std::size_t round_tx0 = stats_.transmissions;

    // Flip buffers: this round's deliveries become the read side; handlers
    // enqueue into the other side, whose previous contents (delivered two
    // rounds ago) are dropped with capacity retained - including the chunk
    // arenas adopted into that side by earlier merges.
    const unsigned read = write_;
    write_ ^= 1u;
    arenas_[write_].clear();
    clear_fast_side(write_);
    adopted_.recycle(write_);

    // Receivers walk their adjacency over the per-sender records; under a
    // delivery model each message is decided on the delivering thread.
    prepare_fast_round(read);
    const auto deliver_to = [&](NodeId d, NodeContext& ctx, SimStats& tally,
                                std::vector<detail::BcastRec>& scratch) {
      if (delivery_.model != nullptr) {
        deliver_fast_to<true>(d, read, ctx, tally, scratch);
      } else {
        deliver_fast_to<false>(d, read, ctx, tally, scratch);
      }
    };
    if (pool == nullptr) {
      for (const NodeId d : dests_) {
        NodeContext ctx(*this, d);
        const std::size_t rx0 = stats_.receptions;
        deliver_to(d, ctx, stats_, merge_scratch_);
        if (inbox_hist != nullptr) {
          inbox_local.record(stats_.receptions - rx0);
        }
      }
    } else {
      chunked_phase(dests_.size(),
                    [&](std::size_t b, detail::EngineOutbox& out) {
                      NodeContext ctx(*this, dests_[b], &out);
                      const std::size_t rx0 = out.tally.receptions;
                      deliver_to(dests_[b], ctx, out.tally, out.scratch);
                      if (inbox_hist != nullptr) {
                        out.inbox_sizes.record(out.tally.receptions - rx0);
                      }
                    });
      merge_outbox_samples();
    }

    all_nodes_phase(
        [&](NodeId v, NodeContext& ctx) { agents_[v]->on_round_end(ctx); });

    round_span.arg("delivered",
                   static_cast<std::int64_t>(stats_.receptions - round_rx0));
    round_span.arg("sent",
                   static_cast<std::int64_t>(stats_.transmissions - round_tx0));
  }

  const bool done = quiesced || (write_side_empty() && agents_finished());
  if (inbox_hist != nullptr) inbox_local.flush(*inbox_hist);
  if (tel) stats_.publish();
  run_span.arg("rounds", static_cast<std::int64_t>(stats_.rounds));
  run_span.arg("transmissions",
               static_cast<std::int64_t>(stats_.transmissions));
  run_span.arg("receptions", static_cast<std::int64_t>(stats_.receptions));
  run_span.arg("quiesced", done ? 1 : 0);
  return done;
}

void SimStats::publish() const {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("engine.runs").inc();
  reg.counter("engine.rounds").add(rounds);
  reg.counter("engine.transmissions").add(transmissions);
  reg.counter("engine.receptions").add(receptions);
  reg.counter("engine.payload_words").add(payload_words);
  reg.counter("engine.drops").add(drops);
  reg.counter("engine.retransmissions").add(retransmissions);
}

}  // namespace khop
