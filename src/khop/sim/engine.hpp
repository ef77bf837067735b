/// \file engine.hpp
/// Synchronous round-based simulator for distributed protocols.
///
/// Timing model: a message sent during round r (in on_start for r = 0, or in
/// on_message / on_round_end handlers) is delivered at round r+1. Hence a
/// flood started at round 0 reaches hop-h nodes exactly at round h, which is
/// how the protocol implementations schedule their phase boundaries.
///
/// Determinism: nodes process their inboxes in ascending node order, and
/// each inbox is sorted by (sender, type, payload). Every protocol result is
/// therefore a pure function of the topology - the property the test suite
/// uses to cross-validate protocols against the centralized algorithms.
///
/// Round loop (PR 5): the historical engine materialized every delivery as
/// a (receiver, message) queue entry and ran one flat O(M log M) sort over
/// all in-flight messages per round, its comparator lexicographically
/// comparing payload words. Now a broadcast is recorded once under its
/// sender - its receiver set is exactly neighbors(sender), so delivery walks
/// each receiver's (ascending) adjacency and replays every neighbor's
/// records, giving the canonical per-inbox (sender, type, payload) order
/// with only tiny per-sender record sorts. No per-neighbor queue entries
/// exist at all. The delivery sequence is bit-identical to the original
/// flat sort (see tests/oracles/sim_reference.hpp for the preserved engine
/// and the equivalence suite).
///
/// Lossy links (DeliveryModel installed) take the same path: sends are
/// recorded exactly like ideal ones, and each per-link drop is decided at
/// delivery, on the delivering thread, from delivery_key(model seed,
/// delivery round, from, to, seq, attempt), where seq is the message's
/// position in its from -> to group of the canonical inbox order. A round
/// whose in-flight messages all drop still counts: the engine quiesces
/// only when nothing was sent.
///
/// Parallel execution: run(max_rounds, pool) chunks each phase's
/// destinations (not the id space: callers hand the engine graphs in
/// arbitrary id order, docs/scaling.md) across workers. Handlers record
/// into per-chunk outboxes merged on the calling thread in ascending node
/// order, so traces and stats are bit-identical to the serial engine for
/// any thread count, lossy runs included. Each inbox is processed by one
/// worker per phase; agents must not share mutable state across nodes, and
/// delivery models are called concurrently. The merge adopts each chunk's
/// payload arena wholesale (detail::AdoptedArenas), so steady-state rounds
/// copy each payload exactly once, at record time.
///
/// Reuse contract: run() may be called repeatedly on one engine. Every call
/// is an independent execution - round counter, stats, pending queues and
/// payload arenas are fully reset at entry, and the agents are re-created
/// from the factory (which the engine stores; anything it captures by
/// reference must outlive the engine). Agent references obtained via
/// agent() before a re-run are invalidated by the next run().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "khop/graph/graph.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/runtime/exec.hpp"
#include "khop/sim/message.hpp"

namespace khop {

class SyncEngine;

/// Decides the fate of one per-link transmission attempt. attempt() must be
/// a pure function of its arguments: the engine calls it from pool workers
/// while delivering, once per attempt, with the key
/// delivery_key(seed(), round, from, to, seq, attempt). A lossy run is
/// therefore a pure function of (topology, protocol, seed) for any thread
/// count. Concrete radio-driven implementations live in khop/radio/.
class DeliveryModel {
 public:
  explicit DeliveryModel(std::uint64_t seed = 0) noexcept : seed_(seed) {}
  virtual ~DeliveryModel() = default;

  /// Seed hashed into every attempt key.
  std::uint64_t seed() const noexcept { return seed_; }

  /// True iff the transmission attempt keyed by \p key from -> to is
  /// delivered.
  virtual bool attempt(NodeId from, NodeId to, std::uint64_t key) const = 0;

 private:
  std::uint64_t seed_;
};

/// The per-attempt key: a splitmix64-style hash of (seed, delivery round,
/// from, to, seq, attempt). seq is the message's position among the
/// round's from -> to messages in canonical (type, payload) inbox order,
/// and attempt runs 0..retry_budget (the retransmit counter), so every
/// per-link, per-round transmission is an independent draw.
std::uint64_t delivery_key(std::uint64_t seed, std::size_t round, NodeId from,
                           NodeId to, std::size_t seq,
                           std::size_t attempt) noexcept;

/// Lossy-delivery configuration for a SyncEngine.
struct DeliveryOptions {
  /// Non-owning; must outlive the engine. nullptr = the paper's ideal MAC.
  const DeliveryModel* model = nullptr;
  /// Extra attempts per dropped per-link delivery (ARQ-style link retries).
  /// Each retry is recorded in SimStats::retransmissions; a delivery that
  /// still fails after the budget counts once in SimStats::drops.
  std::size_t retry_budget = 0;
};

namespace detail {
/// One recorded local broadcast: the engine stores it once per sender
/// instead of materializing one queue entry per neighbor - the
/// receiver set is exactly neighbors(sender), so delivery re-derives it.
struct BcastRec {
  std::uint16_t type = 0;
  PayloadView data;
};

/// One recorded addressed send, bucketed by destination.
struct SendRec {
  NodeId sender = kInvalidNode;
  std::uint16_t type = 0;
  PayloadView data;
};

/// One handler-recorded send in the parallel executor. Broadcasts keep
/// to == kInvalidNode; the merge records both kinds exactly as the serial
/// engine would.
struct RawSend {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::uint16_t type = 0;
  PayloadView data;
};

/// Per-chunk sink for the parallel executor: workers intern payloads into a
/// chunk-private arena and append RawSends; the engine replays them (stats,
/// recording) serially in chunk order.
struct EngineOutbox {
  PayloadArena arena;
  std::vector<RawSend> sends;
  /// The chunk's delivery counts (receptions, drops, retransmissions),
  /// folded into the engine's SimStats at the merge.
  SimStats tally;
  /// Per-worker merge buffer for fast-path delivery (see deliver_fast_to).
  std::vector<BcastRec> scratch;
  /// Per-chunk inbox-size samples (telemetry only); merged at the serial
  /// join after each delivery phase, NOT dropped by reset() — the merge
  /// happens after the flush has already reset the chunk.
  obs::LocalHistogram inbox_sizes;

  void reset() noexcept {
    arena.clear();
    sends.clear();
    tally = SimStats{};
  }
};

/// Round-side store for payload arenas adopted from executor outboxes.
/// Instead of re-interning every replayed payload into the engine arena,
/// the flush moves the whole chunk arena here (block addresses are stable
/// under move, so the recorded views stay valid) and hands the chunk a
/// cleared arena from the pool — steady-state rounds copy each payload
/// once, at record time, and allocate nothing.
struct AdoptedArenas {
  std::vector<PayloadArena> side[2];
  std::vector<PayloadArena> pool;

  /// Moves \p a into \p s's store and replaces it with a pooled arena.
  void adopt(PayloadArena& a, unsigned s) {
    side[s].push_back(std::move(a));
    if (pool.empty()) {
      a = PayloadArena{};
    } else {
      a = std::move(pool.back());
      pool.pop_back();
    }
  }

  /// Returns side \p s's arenas (whose views are now dead) to the pool.
  void recycle(unsigned s) {
    for (PayloadArena& a : side[s]) {
      a.clear();
      pool.push_back(std::move(a));
    }
    side[s].clear();
  }

  void reset() {
    recycle(0);
    recycle(1);
  }
};
}  // namespace detail

/// Per-node handle the engine passes to agent callbacks.
class NodeContext {
 public:
  NodeId id() const noexcept { return id_; }
  std::size_t round() const noexcept;
  std::span<const NodeId> neighbors() const;

  /// Local broadcast: delivered to every neighbor next round. The words are
  /// copied (interned) before the call returns; the span need only be valid
  /// for the duration of the call.
  void broadcast(std::uint16_t type, std::span<const std::int64_t> data);
  void broadcast(std::uint16_t type, std::initializer_list<std::int64_t> data) {
    broadcast(type, std::span<const std::int64_t>(data.begin(), data.size()));
  }

  /// Addressed send to a direct neighbor: delivered next round.
  /// \pre `to` is a neighbor of this node
  void send(NodeId to, std::uint16_t type, std::span<const std::int64_t> data);
  void send(NodeId to, std::uint16_t type,
            std::initializer_list<std::int64_t> data) {
    send(to, type, std::span<const std::int64_t>(data.begin(), data.size()));
  }

 private:
  friend class SyncEngine;
  NodeContext(SyncEngine& engine, NodeId id,
              detail::EngineOutbox* sink = nullptr)
      : engine_(&engine), id_(id), sink_(sink) {}
  SyncEngine* engine_;
  NodeId id_;
  /// Non-null only under the parallel executor: sends are recorded here and
  /// replayed serially instead of touching shared engine state.
  detail::EngineOutbox* sink_;
};

/// A protocol's per-node state machine.
class NodeAgent {
 public:
  virtual ~NodeAgent() = default;

  /// Round 0: initial sends.
  virtual void on_start(NodeContext& /*ctx*/) {}

  /// One delivered message (round >= 1).
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;

  /// End of every round (round >= 1), after all deliveries of that round.
  virtual void on_round_end(NodeContext& /*ctx*/) {}

  /// Termination hint: the engine stops when every agent is finished and no
  /// messages are in flight.
  virtual bool finished() const { return true; }
};

/// Creates the agent for one node. The engine retains the factory and calls
/// it again, in ascending node order, to re-create agents on re-entry.
using AgentFactory = std::function<std::unique_ptr<NodeAgent>(NodeId)>;

/// The simulator. Owns one agent per node.
class SyncEngine {
 public:
  using AgentFactory = khop::AgentFactory;

  /// \p delivery configures lossy links; the default is the ideal MAC.
  /// The factory is retained: re-running the engine re-creates the agents
  /// through it (see the file-level reuse contract).
  SyncEngine(const Graph& g, const AgentFactory& factory,
             const DeliveryOptions& delivery = {});

  /// Runs until quiescence (all agents finished, nothing in flight) or
  /// \p max_rounds. Returns true iff it reached quiescence. With exec.pool
  /// set, each round's phases run chunked across the pool: identical
  /// semantics and bit-identical traces and stats for any thread count.
  /// Reads only exec.pool.
  bool run(std::size_t max_rounds, Exec exec = {});

  const SimStats& stats() const noexcept { return stats_; }
  std::size_t round() const noexcept { return round_; }

  NodeAgent& agent(NodeId v);
  const NodeAgent& agent(NodeId v) const;

  const Graph& graph() const noexcept { return *graph_; }

 private:
  friend class NodeContext;

  const Graph* graph_;
  DeliveryOptions delivery_;
  AgentFactory factory_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  SimStats stats_;
  bool ran_ = false;

  /// Payload arenas, double-buffered by delivery round, indexed by write_.
  PayloadArena arenas_[2];
  unsigned write_ = 0;
  std::size_t round_ = 0;

  /// Recording state, double-buffered like arenas_: a broadcast
  /// is recorded ONCE under its sender, addressed sends are bucketed by
  /// destination, and delivery walks each receiver's neighbor list (see the
  /// round-loop notes above). Broadcasts land in a flat append log;
  /// prepare_fast_round counting-scatters the read side into flat_recs_
  /// grouped by ascending sender. The dirty lists make clearing
  /// O(active nodes).
  std::vector<detail::SendRec> bcast_log_[2];  ///< append order, per side
  std::vector<NodeId> bcast_senders_[2];       ///< dirty senders
  std::vector<std::uint32_t> rec_count_[2];    ///< per-sender log counts
  std::vector<std::uint32_t> rec_begin_;       ///< read-side range starts
  std::vector<std::uint32_t> rec_cursor_;      ///< scatter cursors
  std::vector<detail::BcastRec> flat_recs_;    ///< read side, sender-grouped
  std::vector<std::vector<detail::SendRec>> sends_[2];  ///< per destination
  std::vector<NodeId> send_dests_[2];          ///< dirty dests
  std::vector<std::uint32_t> dest_stamp_;      ///< receiver-set dedup marks
  std::uint32_t dest_epoch_ = 0;
  std::vector<detail::BcastRec> merge_scratch_;  ///< serial merge buffer
  std::vector<NodeId> dests_;  ///< the round's receivers, ascending

  std::vector<detail::EngineOutbox> outboxes_;  ///< parallel executor sinks
  detail::AdoptedArenas adopted_;  ///< chunk arenas adopted at merge time

  /// True iff nothing is scheduled for delivery next round.
  bool write_side_empty() const noexcept {
    return bcast_senders_[write_].empty() && send_dests_[write_].empty();
  }

  /// True iff every agent reports finished().
  bool agents_finished() const;

  /// (Re-)creates every node's agent through factory_, ascending.
  void create_agents();

  /// Resets counters, buckets and arenas; re-creates agents on re-entry.
  void reset_for_run();

  /// Send recording: stats + per-sender / per-destination bucket append.
  /// The payload already lives in the write side's arena or in a chunk
  /// arena that flush_outboxes adopts into it.
  void record_broadcast(NodeId from, std::uint16_t type, PayloadView payload);
  void record_send(NodeId from, NodeId to, std::uint16_t type,
                   PayloadView payload);

  /// Sorts side \p read's records and builds dests_ (ascending receiver
  /// set: every broadcaster's neighborhood plus every send destination).
  void prepare_fast_round(unsigned read);

  /// Delivers side \p read's messages to \p d in canonical order: senders
  /// ascending (d's adjacency), each sender's broadcasts merged with its
  /// addressed sends by (type, payload). kLossy runs each message through
  /// link_delivers first. Counts into \p tally's receptions, drops and
  /// retransmissions.
  template <bool kLossy>
  void deliver_fast_to(NodeId d, unsigned read, NodeContext& ctx,
                       SimStats& tally, std::vector<detail::BcastRec>& scratch);

  /// Attempts the seq-th message of this round's from -> to group up to
  /// 1 + retry_budget times; counts retries and a final drop into \p tally.
  bool link_delivers(NodeId from, NodeId to, std::size_t seq,
                     SimStats& tally) const;

  /// O(dirty) reset of side \p side's fast-path buckets.
  void clear_fast_side(unsigned side) noexcept;

  /// Replays outboxes_[0, used) in order, folds their delivery tallies, and
  /// adopts their arenas into the current write side. The recorded payloads
  /// already live in the chunk arenas, so nothing is re-interned.
  void flush_outboxes(std::size_t used);

};

}  // namespace khop
