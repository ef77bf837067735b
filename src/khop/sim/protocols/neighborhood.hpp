/// \file neighborhood.hpp
/// k-hop neighborhood discovery by bounded flooding: every node announces
/// itself; announcements are relayed up to k hops. Afterwards each node
/// knows every node within k hops, with its hop distance and a canonical
/// (min-id) parent pointer back toward it.
///
/// This is the information-gathering primitive underlying all the paper's
/// "(2k+1)-hop local information" claims; its stats quantify the
/// communication cost of a k-hop view.
///
/// The per-origin record is a KnownTable: a flat, epoch-stamped,
/// open-addressed slot vector in the EpochFlags mold
/// (runtime/workspace.hpp) - O(1) stamped validity instead of per-node-wide
/// rows, because all n agents coexist and an n-wide row per agent would be
/// O(n^2) memory. It replaces the historical std::map<NodeId, Known>, whose
/// per-message try_emplace (one allocation per discovered origin, pointer
/// chasing per lookup) dominated the engine-flood profile; the preserved
/// map-based agent lives in tests/oracles/sim_reference.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "khop/sim/engine.hpp"

namespace khop {

/// Discovery record for one known origin.
struct KnownRecord {
  Hops dist = kUnreachable;
  NodeId parent = kInvalidNode;  ///< neighbor one hop closer to the origin

  bool operator==(const KnownRecord&) const = default;
};

/// Flat open-addressed map NodeId -> KnownRecord with epoch-stamped slots:
/// clear() is O(1) (stamp bump), lookups are linear probes over one
/// contiguous slot vector, and capacity is retained across generations -
/// the EpochFlags reuse discipline applied to a sparse id set.
class KnownTable {
 public:
  /// Record for \p origin, inserting a default one if absent. \p inserted
  /// reports which happened (the try_emplace contract).
  KnownRecord& upsert(NodeId origin, bool& inserted) {
    if (size_ + 1 > (slots_.size() * 7) / 10) grow();
    Slot& s = probe(origin);
    inserted = s.stamp != epoch_;
    if (inserted) {
      s = Slot{origin, epoch_, KnownRecord{}};
      ++size_;
    }
    return s.rec;
  }

  /// Record for \p origin, or nullptr if never discovered.
  const KnownRecord* find(NodeId origin) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(origin);
    while (slots_[i].stamp == epoch_) {
      if (slots_[i].origin == origin) return &slots_[i].rec;
      i = (i + 1) & (slots_.size() - 1);
    }
    return nullptr;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Calls fn(origin, record) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.stamp == epoch_) fn(s.origin, s.rec);
    }
  }

  /// Owned snapshot sorted by origin id (test/inspection convenience).
  std::vector<std::pair<NodeId, KnownRecord>> sorted_items() const;

  /// Forgets every entry in O(1); capacity is retained.
  void clear() noexcept {
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      for (Slot& s : slots_) s.stamp = 0;
      epoch_ = 0;
    }
    ++epoch_;
    size_ = 0;
  }

 private:
  struct Slot {
    NodeId origin = kInvalidNode;
    std::uint32_t stamp = 0;  ///< occupied iff == table epoch
    KnownRecord rec;
  };

  std::size_t index_of(NodeId origin) const noexcept {
    // Fibonacci multiplicative mix; slots_.size() is a power of two.
    return static_cast<std::size_t>(origin * 2654435761u) &
           (slots_.size() - 1);
  }

  Slot& probe(NodeId origin) {
    std::size_t i = index_of(origin);
    while (slots_[i].stamp == epoch_ && slots_[i].origin != origin) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return slots_[i];
  }

  void grow();

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;  ///< never 0: fresh slots are always invalid
  std::size_t size_ = 0;
};

class NeighborhoodDiscoveryAgent : public NodeAgent {
 public:
  using Known = KnownRecord;

  explicit NeighborhoodDiscoveryAgent(Hops k) : k_(k) {}

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;

  /// Origin -> record, for all origins within k hops (self excluded).
  const KnownTable& known() const noexcept { return known_; }

 private:
  static constexpr std::uint16_t kHello = 1;

  Hops k_;
  KnownTable known_;
};

}  // namespace khop
