/// \file harness.hpp
/// Perf-regression bench harness: times named kernels and emits a
/// schema-versioned JSON trajectory (`BENCH_*.json`) that successive PRs
/// report against. Also home of the shared bench artifact plumbing that used
/// to be copy-pasted via figure_common.hpp.
///
/// JSON schema (khop.bench, version 3):
/// {
///   "schema": "khop.bench",
///   "schema_version": 3,
///   "label": "<trajectory label, e.g. PR3>",
///   "provenance": { "nproc": 4, "pool_threads": 4, "compiler": "GNU 12.2.0",
///                   "build_type": "Release", "git_describe": "29fc562" },
///   "kernels": [
///     { "name": "clustering", "variant": "workspace", "n": 2000, "k": 2,
///       "reps": 5, "wall_ns_mean": 1.2e7, "wall_ns_min": 1.1e7,
///       "checksum": 12345.0,
///       "allocs_per_rep": 120, "peak_rss_bytes": 34000000 }
///   ],
///   "speedups": [
///     { "name": "clustering", "n": 2000, "speedup": 3.4 }
///   ]
/// }
/// `checksum` is a variant-independent digest of the kernel's output: equal
/// checksums across variants of one (name, n) row double-check that the
/// timed paths computed the same thing. Version 2 added the two memory
/// columns: `allocs_per_rep` is the mean heap-allocation count of one timed
/// repetition (global operator-new hook, see alloc_hooks.cpp; steady-state
/// kernels should pin it near 0), and `peak_rss_bytes` the process
/// high-water RSS sampled after the kernel's reps (0 where unsupported).
/// Version 3 adds `provenance`, with e2ebench's field names: the CPUs the
/// process may run on, the thread count of the pool the `parallel` rows ran
/// on (null for a bench without one), the compiler and build type, and
/// `git describe --always --dirty` of the source tree at build time
/// ("unknown" outside a git checkout). tools/compare_bench_json.py gates
/// `parallel` rows only between files with the same `pool_threads`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/exp/table.hpp"

namespace khop::bench {

struct KernelTiming {
  std::string name;     ///< kernel id, e.g. "bounded_bfs"
  std::string variant;  ///< implementation id, e.g. "legacy" / "workspace"
  std::size_t n = 0;    ///< problem size (node count)
  Hops k = 0;
  std::size_t reps = 0;
  double wall_ns_mean = 0.0;
  double wall_ns_min = 0.0;
  double checksum = 0.0;
  std::uint64_t allocs_per_rep = 0;  ///< mean heap allocations per timed rep
  std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS after the reps
};

struct HarnessOptions {
  std::size_t min_reps = 3;    ///< at least this many timed repetitions
  double min_seconds = 0.05;   ///< and at least this much total wall time
};

/// Collects kernel timings and serializes the trajectory.
class Harness {
 public:
  explicit Harness(std::string label, HarnessOptions opts = {});

  /// Times \p fn (which runs one full kernel repetition and returns its
  /// checksum) under the rep policy and records the row. Returns the row.
  const KernelTiming& time_kernel(const std::string& name,
                                  const std::string& variant, std::size_t n,
                                  Hops k, const std::function<double()>& fn);

  /// Records the thread count of the pool the `parallel` variants run on
  /// (provenance.pool_threads; null until set).
  void set_pool_threads(std::size_t threads) { pool_threads_ = threads; }

  const std::vector<KernelTiming>& results() const noexcept {
    return results_;
  }

  /// legacy-mean / workspace-mean for (name, n); 0 if either row is missing.
  double speedup(const std::string& name, std::size_t n) const;

  /// Rows whose checksum disagrees with another variant of the same
  /// (name, n); empty means every variant pair computed identical outputs.
  std::vector<std::string> checksum_mismatches() const;

  std::string to_json() const;

  /// Writes to_json() to \p path. Throws IoError on failure.
  void write_json(const std::string& path) const;

 private:
  std::string label_;
  HarnessOptions opts_;
  std::optional<std::size_t> pool_threads_;
  std::vector<KernelTiming> results_;
};

/// Writes a table as CSV into $KHOP_CSV_DIR/<name>.csv when that environment
/// variable is set (plot-ready artifacts next to the printed tables).
void maybe_write_csv(const std::string& name, const TextTable& t);

/// Total heap allocations (operator new calls) in this process so far.
/// Counted by the replacement global operator new in alloc_hooks.cpp, which
/// links into every bench binary via the harness library.
std::uint64_t alloc_count() noexcept;

/// Process peak resident set size in bytes (getrusage ru_maxrss); 0 on
/// platforms without it.
std::uint64_t peak_rss_bytes() noexcept;

}  // namespace khop::bench
