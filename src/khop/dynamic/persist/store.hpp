/// \file store.hpp
/// Crash-safe maintenance: DurableChurnEngine wraps a ChurnEngine with a
/// snapshot + write-ahead-log persistence directory so that a process crash
/// at ANY point loses at most the un-flushed WAL tail and recovery
/// reconverges bit-exactly (tests/test_crash_recovery.cpp).
///
/// Directory layout (all files little-endian binary, see snapshot.hpp /
/// wal.hpp for the formats):
///
///   snap-<cursor>.khsnp   full engine state at that trace cursor
///   wal-<cursor>.khwal    events from that cursor until the next snapshot
///
/// Write protocol:
///   check_event   -> a rejected event throws before anything is written,
///                    so the WAL holds only events the engine accepted
///   append(event) -> active WAL (flushed every wal_flush_every records)
///   apply(event)  -> engine
///   every snapshot_every events: encode state -> snap-*.tmp -> fsync-free
///   atomic rename -> rotate WAL to a fresh segment -> retire files beyond
///   keep_snapshots generations
///
/// Recovery protocol (recover()):
///   newest snapshot that decodes + checksums clean (older ones are
///   fallbacks, each rejection reason reported) -> replay the WAL chain
///   from its cursor tolerating a torn tail -> open a FRESH segment at the
///   recovered cursor. A fresh segment (never appending to a torn one)
///   keeps every segment's implicit event indexing contiguous.
///
/// The whole path is instrumented with the crash points of crash_point.hpp
/// and the persist.* metrics of docs/observability.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/persist/wal.hpp"

namespace khop::persist {

struct DurabilityOptions {
  /// Snapshot after every N applied events (0 = only manual snapshot()).
  std::size_t snapshot_every = 256;
  /// WAL flush batching: records buffered before hitting the file. 1 =
  /// every append durable immediately; larger batches trade crash-window
  /// for fewer writes.
  std::size_t wal_flush_every = 1;
  /// Snapshot generations kept for corruption fallback (>= 1). WAL
  /// segments are retired once no kept snapshot needs them.
  std::size_t keep_snapshots = 2;
};

/// What recover() did, for callers and tests.
struct RecoveryReport {
  bool used_snapshot = false;        ///< false: clean-slate directory
  std::uint64_t snapshot_cursor = 0; ///< cursor of the snapshot loaded
  std::uint64_t cursor = 0;          ///< cursor after WAL replay
  std::size_t replayed_events = 0;
  /// One "<file>: <reason>" line per newer snapshot that was rejected
  /// before a valid one loaded.
  std::vector<std::string> fallbacks;
  /// Non-empty when the replayed WAL chain ended in a torn tail.
  std::string wal_tail;
};

class DurableChurnEngine {
 public:
  /// Fresh start: builds the engine from \p g0, then seeds \p dir (created
  /// if absent) with the cursor-0 snapshot and an empty WAL segment, so a
  /// crash immediately after construction is already recoverable.
  static DurableChurnEngine create(const Graph& g0, Hops k, Pipeline pipeline,
                                   std::string dir,
                                   DurabilityOptions dopts = {},
                                   ChurnEngineOptions eopts = {});

  /// Recovers from \p dir per the file-header protocol. Throws CorruptState
  /// when no snapshot loads at all (every generation corrupt or the
  /// directory was never seeded) or when the WAL chain has a gap.
  static DurableChurnEngine recover(std::string dir,
                                    RecoveryReport* report = nullptr,
                                    DurabilityOptions dopts = {},
                                    ChurnEngineOptions eopts = {});

  /// check_event, then WAL-append (durability first), then engine apply,
  /// then auto-snapshot at the snapshot_every boundary. A rejected event
  /// throws InvalidArgument before it is logged.
  ChurnEventReport apply(const ChurnEvent& e);

  /// Writes a snapshot at the current cursor, rotates the WAL, retires
  /// files beyond keep_snapshots generations.
  void snapshot();

  /// Flushes buffered WAL records (a clean shutdown point; the destructor
  /// deliberately does NOT flush, so an injected crash unwinding through it
  /// loses the buffered tail exactly like a real crash).
  void flush_wal() { wal_.flush(); }

  /// Events applied since create() (== the trace cursor).
  std::uint64_t cursor() const noexcept { return cursor_; }

  ChurnEngine& engine() noexcept { return engine_; }
  const ChurnEngine& engine() const noexcept { return engine_; }
  const std::string& dir() const noexcept { return dir_; }

 private:
  DurableChurnEngine(ChurnEngine engine, std::string dir,
                     DurabilityOptions dopts, std::uint64_t cursor);

  void open_fresh_segment();
  std::string snapshot_path(std::uint64_t cursor) const;
  std::string wal_path(std::uint64_t cursor) const;
  void retire_old_files();

  ChurnEngine engine_;
  std::string dir_;
  DurabilityOptions dopts_;
  std::uint64_t cursor_ = 0;
  WalWriter wal_;
};

}  // namespace khop::persist
