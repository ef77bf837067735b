/// \file span.hpp
/// The benchmark's own tracing: RAII spans around calls into the library's
/// public functions, kept in per-thread memory buffers while the traced pass
/// runs, folded into per-name and per-layer self/inclusive time, and written
/// once at exit as Chrome trace-event JSON (khop.trace v1, the format
/// tools/validate_trace_json.py checks).
///
/// A span name is "<layer>.<stage>", the layer being the source module the
/// wrapped call lives in (net, graph, cluster, gateway, cds, exp, sim,
/// dynamic, persist). Spans record nothing while tracing is off, so the
/// untraced runs pay one relaxed load per span.
///
/// Each span also records the heap-allocation delta of the process
/// (bench::alloc_count()) over its interval. The counter is global, so the
/// delta is exact only while no other thread allocates: the benchmark reads
/// allocation counts from spans that run alone (a serial stage, or a
/// parallel library call with the calling thread waiting on it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct SpanRec {
  const char* name = "";
  std::uint32_t depth = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t allocs = 0;
};

/// Folded totals of every span of one name (or one layer).
struct FoldRow {
  std::size_t count = 0;
  double incl_s = 0.0;  ///< sum of durations
  double self_s = 0.0;  ///< sum of durations minus child-span coverage
  std::uint64_t allocs = 0;
};

struct Fold {
  std::map<std::string, FoldRow> spans;   ///< by span name
  std::map<std::string, FoldRow> layers;  ///< by layer (name prefix)

  /// The row of \p name; an all-zero row when no such span ran.
  const FoldRow& span(const std::string& name) const;
};

class Tracer {
 public:
  struct Buffer {
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::vector<SpanRec> spans;
  };
  /// Per-buffer span counts at one instant; fold() takes spans after it.
  using Mark = std::vector<std::size_t>;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::int64_t now_ns() const noexcept;

  /// The calling thread's buffer, registered on first use. The first thread
  /// to register is named "main" in the exported trace.
  Buffer& local();

  /// Call only while no traced work runs on other threads.
  Mark mark();
  Fold fold(const Mark& since);

  std::size_t num_spans();

  /// Writes every recorded span. \p other_data is a JSON object body
  /// (without braces) appended to otherData after the schema keys.
  void write_chrome_json(const std::string& path,
                         const std::string& other_data);

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& tracer();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Tracer::Buffer* buf_ = nullptr;
  std::uint32_t depth_ = 0;
  std::int64_t start_ns_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace e2e
