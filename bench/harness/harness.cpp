#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "khop/common/error.hpp"

namespace khop::bench {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// `git describe --always --dirty` at build time, as a string literal
/// (generated by bench/harness/git_describe.cmake before every build).
constexpr const char* kGitDescribe =
#include "khop_git_describe.inc"
    ;

/// CPUs this process may run on (its affinity mask), as e2ebench reports.
std::size_t cpus_available() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// JSON number formatting: shortest round-trippable doubles.
std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

Harness::Harness(std::string label, HarnessOptions opts)
    : label_(std::move(label)), opts_(opts) {}

const KernelTiming& Harness::time_kernel(const std::string& name,
                                         const std::string& variant,
                                         std::size_t n, Hops k,
                                         const std::function<double()>& fn) {
  KernelTiming row;
  row.name = name;
  row.variant = variant;
  row.n = n;
  row.k = k;

  // One untimed warmup rep: faults in the topology, fills scratch/arena
  // capacity, and gives the checksum.
  row.checksum = fn();

  double total_ns = 0.0;
  double min_ns = std::numeric_limits<double>::infinity();
  const double budget_ns = opts_.min_seconds * 1e9;
  const std::uint64_t allocs0 = alloc_count();
  while (row.reps < opts_.min_reps || total_ns < budget_ns) {
    const double t0 = now_ns();
    const double check = fn();
    const double elapsed = now_ns() - t0;
    if (check != row.checksum) {
      throw InvariantViolation("bench kernel " + name + "/" + variant +
                               " is nondeterministic across repetitions");
    }
    total_ns += elapsed;
    min_ns = std::min(min_ns, elapsed);
    ++row.reps;
  }
  row.wall_ns_mean = total_ns / static_cast<double>(row.reps);
  row.wall_ns_min = min_ns;
  row.allocs_per_rep = (alloc_count() - allocs0) / row.reps;
  row.peak_rss_bytes = peak_rss_bytes();
  results_.push_back(row);
  return results_.back();
}

double Harness::speedup(const std::string& name, std::size_t n) const {
  double legacy = 0.0;
  double workspace = 0.0;
  for (const KernelTiming& r : results_) {
    if (r.name != name || r.n != n) continue;
    if (r.variant == "legacy") legacy = r.wall_ns_mean;
    if (r.variant == "workspace") workspace = r.wall_ns_mean;
  }
  if (legacy <= 0.0 || workspace <= 0.0) return 0.0;
  return legacy / workspace;
}

std::vector<std::string> Harness::checksum_mismatches() const {
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    for (std::size_t j = i + 1; j < results_.size(); ++j) {
      const KernelTiming& a = results_[i];
      const KernelTiming& b = results_[j];
      if (a.name == b.name && a.n == b.n && a.checksum != b.checksum) {
        bad.push_back(a.name + " n=" + std::to_string(a.n) + ": " + a.variant +
                      " vs " + b.variant);
      }
    }
  }
  return bad;
}

std::string Harness::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"khop.bench\",\n";
  os << "  \"schema_version\": 3,\n";
  os << "  \"label\": \"" << label_ << "\",\n";
  os << "  \"provenance\": {\"nproc\": " << cpus_available()
     << ", \"pool_threads\": "
     << (pool_threads_ ? std::to_string(*pool_threads_) : "null")
     << ", \"compiler\": " << quoted(KHOP_BENCH_COMPILER)
     << ", \"build_type\": " << quoted(KHOP_BENCH_BUILD_TYPE)
     << ", \"git_describe\": " << quoted(kGitDescribe) << "},\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const KernelTiming& r = results_[i];
    os << "    {\"name\": \"" << r.name << "\", \"variant\": \"" << r.variant
       << "\", \"n\": " << r.n << ", \"k\": " << r.k
       << ", \"reps\": " << r.reps
       << ", \"wall_ns_mean\": " << num(r.wall_ns_mean)
       << ", \"wall_ns_min\": " << num(r.wall_ns_min)
       << ", \"checksum\": " << num(r.checksum)
       << ", \"allocs_per_rep\": " << r.allocs_per_rep
       << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << "}"
       << (i + 1 < results_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"speedups\": [\n";
  // One speedup row per (name, n) that has both a legacy and a workspace
  // variant, in first-appearance order.
  std::vector<std::pair<std::string, std::size_t>> keys;
  for (const KernelTiming& r : results_) {
    const auto key = std::make_pair(r.name, r.n);
    bool seen = false;
    for (const auto& k2 : keys) seen = seen || k2 == key;
    if (!seen && speedup(r.name, r.n) > 0.0) keys.push_back(key);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    os << "    {\"name\": \"" << keys[i].first << "\", \"n\": "
       << keys[i].second
       << ", \"speedup\": " << num(speedup(keys[i].first, keys[i].second))
       << "}" << (i + 1 < keys.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

void Harness::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot open bench output file: " + path);
  out << to_json();
  if (!out) throw Error("failed writing bench output file: " + path);
}

void maybe_write_csv(const std::string& name, const TextTable& t) {
  const char* dir = std::getenv("KHOP_CSV_DIR");
  if (dir == nullptr) return;
  std::ofstream out(std::string(dir) + "/" + name + ".csv");
  if (out) out << t.to_csv();
}

}  // namespace khop::bench
