/// \file message.hpp
/// Wire format and accounting for the synchronous message-passing simulator.
///
/// Payloads are sequences of 64-bit words: rich enough for every protocol
/// here (flood origins, hop counters, adjacency sets) while keeping the
/// overhead accounting trivial (1 word = 8 bytes).
///
/// Delivered messages carry a PayloadView into the engine's round arena: a
/// broadcast materializes its payload once and every receiving neighbor's
/// Message aliases the same immutable words, instead of the historical one
/// deep copy per neighbor. Views are valid only while the handler runs
/// (through the end of the delivery round); protocols that keep payload data
/// must copy it (to_vector(), or into their own buffers).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "khop/common/types.hpp"

namespace khop {

/// Non-owning view of an immutable message payload. Ordered lexicographically
/// by words, which keeps the engine's (sender, type, payload) inbox sort
/// bit-identical to the old vector-payload behaviour.
class PayloadView {
 public:
  constexpr PayloadView() = default;
  constexpr PayloadView(const std::int64_t* words, std::size_t size) noexcept
      : words_(words), size_(size) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::int64_t& operator[](std::size_t i) const noexcept {
    return words_[i];
  }
  const std::int64_t* begin() const noexcept { return words_; }
  const std::int64_t* end() const noexcept { return words_ + size_; }

  std::vector<std::int64_t> to_vector() const { return {begin(), end()}; }

  /// Implicit view so forwarding call sites (`ctx.send(..., msg.data)`)
  /// hit the span-based engine API without materializing a vector.
  constexpr operator std::span<const std::int64_t>() const noexcept {
    return {words_, size_};
  }

  friend bool operator==(PayloadView a, PayloadView b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(PayloadView a,
                                          PayloadView b) noexcept {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  const std::int64_t* words_ = nullptr;
  std::size_t size_ = 0;
};

/// Bump arena for message payload words. intern() appends into chunked
/// blocks whose addresses are stable (a block never reallocates once words
/// point into it), and clear() resets for reuse without releasing capacity -
/// the engine keeps two, double-buffered by delivery round.
class PayloadArena {
 public:
  /// Copies \p words into the arena and returns a stable view of them.
  PayloadView intern(std::span<const std::int64_t> words) {
    if (words.empty()) return {};
    std::vector<std::int64_t>& block = reserve_block(words.size());
    const std::int64_t* start = block.data() + block.size();
    block.insert(block.end(), words.begin(), words.end());
    return {start, words.size()};
  }

  /// Invalidates every view handed out since the last clear(). Keeps block
  /// capacity so steady-state rounds allocate nothing.
  void clear() noexcept {
    for (std::vector<std::int64_t>& block : blocks_) block.clear();
    scan_start_ = 0;
  }

  /// Diagnostic: blocks allocated so far. Bounded-growth regression tests
  /// assert on this (see the stranding note at reserve_block).
  std::size_t num_blocks() const noexcept { return blocks_.size(); }

 private:
  static constexpr std::size_t kMinBlockWords = 4096;
  /// Blocks whose remaining capacity drops below this are retired from the
  /// front of the first-fit scan until the next clear(). The threshold
  /// trades a bounded strand (< kRetireWords per block, ~6% of a standard
  /// block) for scan cost: crumbs left by payloads up to this size retire
  /// as the prefix exhausts, keeping the scan O(1) amortized for the small
  /// payloads that dominate. Blocks retaining more free space than this
  /// stay scannable (they can host later smaller payloads), so a stream of
  /// same-sized payloads each leaving > kRetireWords of slack degrades to
  /// O(active blocks) per new block - bounded in practice by the round's
  /// payload volume / kMinBlockWords.
  static constexpr std::size_t kRetireWords = 256;

  /// A block with room for \p len more words without reallocating.
  ///
  /// First-fit over the non-retired blocks. The pre-PR5 version advanced a
  /// monotone cursor past any block that could not fit the current payload
  /// and never revisited it, so alternating large/small interns stranded
  /// most of each block's capacity and grew the block list without bound
  /// within a round (one block per intern in the worst case).
  std::vector<std::int64_t>& reserve_block(std::size_t len) {
    while (scan_start_ < blocks_.size() &&
           blocks_[scan_start_].capacity() - blocks_[scan_start_].size() <
               kRetireWords) {
      ++scan_start_;
    }
    for (std::size_t i = scan_start_; i < blocks_.size(); ++i) {
      if (blocks_[i].capacity() - blocks_[i].size() >= len) return blocks_[i];
    }
    blocks_.emplace_back().reserve(std::max(kMinBlockWords, len));
    return blocks_.back();
  }

  std::vector<std::vector<std::int64_t>> blocks_;
  std::size_t scan_start_ = 0;
};

struct Message {
  NodeId sender = kInvalidNode;  ///< immediate (1-hop) sender
  std::uint16_t type = 0;        ///< protocol-defined tag
  PayloadView data;              ///< valid for the delivery round only
};

/// Protocol cost accounting. A local broadcast is one radio transmission
/// heard by deg(sender) receivers; an addressed send is one transmission
/// with a single receiver (ideal-MAC model, as assumed by the paper). Under
/// a lossy DeliveryModel the per-link deliveries additionally record drops
/// and link-layer retries; both stay 0 on the ideal MAC. Loss is decided at
/// delivery, so a round counts in `rounds` whenever something was sent,
/// even if every in-flight message of that round drops.
struct SimStats {
  std::size_t rounds = 0;
  std::size_t transmissions = 0;   ///< radio sends
  std::size_t receptions = 0;      ///< message deliveries
  std::size_t payload_words = 0;   ///< sum of data words transmitted
  std::size_t drops = 0;           ///< per-link deliveries lost for good
                                   ///< (after exhausting any retry budget)
  std::size_t retransmissions = 0; ///< link-layer retries attempted

  /// Counts one radio transmission carrying \p words payload words — the
  /// single accounting point shared by every engine send path (broadcast /
  /// addressed, serial / recorded / replayed).
  void note_transmission(std::size_t words) noexcept {
    ++transmissions;
    payload_words += words;
  }

  /// Adds these counters to the global obs::Registry under the `engine.*`
  /// metric names (see docs/observability.md). The struct stays the
  /// per-engine view; the registry is the queryable cross-engine store.
  /// Called by SyncEngine at the end of every run when telemetry is
  /// enabled; defined in sim/engine.cpp.
  void publish() const;
};

}  // namespace khop
