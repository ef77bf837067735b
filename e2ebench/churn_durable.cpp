/// \file churn_durable.cpp
/// Workload churn_durable: the write side of the graph/gateway layers —
/// the backbone repaired in place under churn instead of rebuilt, with a
/// write-ahead log and snapshots underneath. The only workload that
/// exercises dynamic/ and persist/.
///
/// Set-up (per pass): a connected jittered grid at n ~= 10^4, a ChurnTrace
/// of 1000 mixed events including the burst and partition scenarios, and
/// DurableChurnEngine::create (k = 2, AC-LMST, default DurabilityOptions)
/// into a fresh directory under the work dir.
/// Timed operations: every event through DurableChurnEngine::apply, one at
/// a time, then DurableChurnEngine::recover on the directory.
/// Gate (untimed): ChurnEngine::audit() returns "" at the end of the pass,
/// and the recovered engine's snapshot bytes equal the live engine's.
#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/dynamic/persist/store.hpp"

namespace e2e {

using namespace khop;
namespace fs = std::filesystem;

namespace {

constexpr Hops kK = 2;
constexpr Pipeline kPipeline = Pipeline::kAcLmst;
constexpr int kExtraSetupReps = 3;

struct ChurnInputs {
  Graph graph;
  ChurnTrace trace;
};

ChurnInputs make_inputs(const Context& cx) {
  ChurnInputs in;
  SpatialGrid grid;
  BfsScratch bfs;
  in.graph = connected_placement(cx.opt.scale.churn_n,
                                 derive_seed(cx.opt.seed, 6), kGridDegree,
                                 grid, nullptr, bfs)
                 .topology.graph;
  const std::size_t events = cx.opt.scale.churn_events;
  ChurnTraceConfig cfg;
  cfg.num_events = events;
  cfg.burst_at = events / 4;
  cfg.burst_radius = 1;
  cfg.partition_at = events / 2;
  cfg.partition_radius = 2;
  cfg.rejoin_after = std::max<std::size_t>(10, events / 20);
  in.trace = ChurnTrace::generate(in.graph, cfg, derive_seed(cx.opt.seed, 7));
  return in;
}

struct PassRun {
  double setup_s = 0.0;
  std::vector<double> event_s;
  double apply_s = 0.0;  ///< all events, back to back
  double recover_s = 0.0;
  double snapshot_s = 0.0;
  double decode_s = 0.0;
  std::size_t snapshot_bytes = 0;
  std::uintmax_t wal_bytes = 0;
  persist::RecoveryReport report;
  std::string error;
};

PassRun run_pass(const Context& cx, std::size_t index) {
  PassRun r;
  const std::string dir =
      (fs::path(cx.opt.work_dir) / ("churn-" + std::to_string(index)))
          .string();
  fs::remove_all(dir);

  const auto t0 = Clock::now();
  const ChurnInputs in = make_inputs(cx);
  std::string live;
  {
    auto d = persist::DurableChurnEngine::create(in.graph, kK, kPipeline, dir);
    r.setup_s = secs(Clock::now() - t0);

    r.event_s.reserve(in.trace.size());
    const auto w0 = Clock::now();
    for (const ChurnEvent& e : in.trace.events()) {
      const auto e0 = Clock::now();
      {
        Span s("persist.apply");
        d.apply(e);
      }
      r.event_s.push_back(secs(Clock::now() - e0));
    }
    d.flush_wal();
    r.apply_s = secs(Clock::now() - w0);

    const auto s0 = Clock::now();
    {
      Span s("persist.snapshot");
      live = persist::encode_snapshot(d.engine(), d.cursor());
    }
    r.snapshot_s = secs(Clock::now() - s0);
    r.snapshot_bytes = live.size();
    if (std::string audit = d.engine().audit(); !audit.empty()) {
      r.error = "audit: " + audit;
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".khwal") r.wal_bytes += entry.file_size();
    }
  }

  std::string recovered;
  {
    const auto r0 = Clock::now();
    auto rec = [&] {
      Span s("persist.recover");
      return persist::DurableChurnEngine::recover(dir, &r.report);
    }();
    r.recover_s = secs(Clock::now() - r0);
    recovered = persist::encode_snapshot(rec.engine(), rec.cursor());
  }
  if (cx.opt.corrupt && !recovered.empty()) {
    recovered[recovered.size() / 2] ^= 1;
  }
  if (r.error.empty() && recovered != live) {
    r.error = "recovered engine state differs from the live engine";
  }

  const auto c0 = Clock::now();
  {
    Span s("persist.decode");
    persist::decode_snapshot(live);
  }
  r.decode_s = secs(Clock::now() - c0);
  fs::remove_all(dir);
  return r;
}

/// The same trace on a bare ChurnEngine (no WAL, no snapshots).
std::vector<double> bare_replay(const ChurnInputs& in, ChurnStats& stats) {
  ChurnEngine engine(in.graph, kK, kPipeline);
  std::vector<double> lat;
  lat.reserve(in.trace.size());
  for (const ChurnEvent& e : in.trace.events()) {
    const auto t0 = Clock::now();
    {
      Span s("dynamic.apply");
      engine.apply(e);
    }
    lat.push_back(secs(Clock::now() - t0));
  }
  stats = engine.stats();
  return lat;
}

double per(double total, std::size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

Outcome run_churn_durable(const Context& cx) {
  Outcome out;
  // Set-up alone a few times first, so setup_s is a median of more samples
  // than the two or three passes a run has time for.
  std::vector<double> setups;
  const std::string setup_dir =
      (fs::path(cx.opt.work_dir) / "churn-setup").string();
  for (int rep = 0; rep < kExtraSetupReps; ++rep) {
    fs::remove_all(setup_dir);
    const auto t0 = Clock::now();
    const ChurnInputs in = make_inputs(cx);
    const auto d =
        persist::DurableChurnEngine::create(in.graph, kK, kPipeline, setup_dir);
    setups.push_back(secs(Clock::now() - t0));
  }
  fs::remove_all(setup_dir);

  std::vector<PassRun> passes;
  const auto account = [&](PassRun&& r) {
    out.ops(r.event_s.size());
    out.ops(1, r.error.empty() ? r.error : "churn_durable: " + r.error);
    passes.push_back(std::move(r));
  };

  if (!cx.opt.trace) {
    const auto start = Clock::now();
    while (passes.empty() || secs(Clock::now() - start) < cx.opt.seconds) {
      account(run_pass(cx, passes.size()));
    }
  } else {
    account(run_pass(cx, 0));  // untraced reference for trace_overhead
    Tracer& t = tracer();
    Tracer::Mark mark = t.mark();
    t.set_enabled(true);
    account(run_pass(cx, 1));
    t.set_enabled(false);
    const Fold f = t.fold(mark);

    const ChurnInputs in = make_inputs(cx);
    ChurnStats stats;
    mark = t.mark();
    t.set_enabled(true);
    const std::vector<double> bare = bare_replay(in, stats);
    t.set_enabled(false);
    const Fold fb = t.fold(mark);

    const PassRun& traced = passes[1];
    const std::size_t events = stats.events;
    const auto allocs_per = [](const FoldRow& row) {
      return row.count == 0 ? 0.0
                            : static_cast<double>(row.allocs) /
                                  static_cast<double>(row.count);
    };
    out.layer = {
        {"dynamic.apply_us_p50", median(bare) * 1e6, "us"},
        {"dynamic.apply_us_p99", quantile(bare, 0.99) * 1e6, "us"},
        {"dynamic.touched_per_event",
         per(static_cast<double>(stats.touched_nodes), events), "count"},
        {"dynamic.resweep_heads_per_event",
         per(static_cast<double>(stats.heads_resweeped), events), "count"},
        {"dynamic.orphans_per_event",
         per(static_cast<double>(stats.orphans), events), "count"},
        {"dynamic.partitions", static_cast<double>(stats.partitions),
         "count"},
        {"dynamic.merges", static_cast<double>(stats.merges), "count"},
        {"persist.wal_us_per_event",
         (mean(traced.event_s) - mean(bare)) * 1e6, "us"},
        {"persist.snapshot_ms", traced.snapshot_s * 1e3, "ms"},
        {"persist.snapshot_bytes",
         static_cast<double>(traced.snapshot_bytes), "bytes"},
        {"persist.wal_bytes", static_cast<double>(traced.wal_bytes),
         "bytes"},
        {"persist.decode_ms", traced.decode_s * 1e3, "ms"},
        {"persist.replayed_events",
         static_cast<double>(traced.report.replayed_events), "count"},
        {"dynamic.apply.allocs", allocs_per(fb.span("dynamic.apply")),
         "count"},
        {"persist.apply.allocs", allocs_per(f.span("persist.apply")),
         "count"},
        {"persist.snapshot.allocs",
         static_cast<double>(f.span("persist.snapshot").allocs), "count"},
        {"persist.recover.allocs",
         static_cast<double>(f.span("persist.recover").allocs), "count"},
        {"persist.decode.allocs",
         static_cast<double>(f.span("persist.decode").allocs), "count"},
        {"churn_durable.trace_overhead",
         (traced.apply_s + traced.recover_s) /
             (passes[0].apply_s + passes[0].recover_s),
         "ratio"},
    };
    add_fold_report(out, "churn_durable", f);
    add_fold_report(out, "churn_durable.bare", fb);
  }

  std::vector<double> events, recovers;
  double apply_total = 0.0;
  for (const PassRun& p : passes) {
    events.insert(events.end(), p.event_s.begin(), p.event_s.end());
    setups.push_back(p.setup_s);
    recovers.push_back(p.recover_s);
    apply_total += p.apply_s;
  }
  const PassRun& last = passes.back();
  std::ostringstream info;
  info << "churn_durable n=" << cx.opt.scale.churn_n
       << " events_per_pass=" << last.event_s.size()
       << " passes=" << passes.size()
       << " replayed=" << last.report.replayed_events
       << " snapshot_bytes=" << last.snapshot_bytes
       << " wal_bytes=" << last.wal_bytes << " pass_events_per_s=";
  for (const PassRun& p : passes) {
    info << (&p == &passes.front() ? "" : ",")
         << static_cast<double>(p.event_s.size()) / p.apply_s;
  }
  out.report.push_back(info.str());

  const double setup = median(setups);
  const double events_per_s = static_cast<double>(events.size()) / apply_total;
  out.e2e = {{"setup_s", setup, "s"},
             {"ops_per_s", events_per_s, "1/s"},
             {"peak_rss_mb", peak_rss_mb(), "MB"}};
  out.named = {{"setup_s", setup, "s"},
               {"events_per_s", events_per_s, "1/s"},
               {"event_p50_us", median(events) * 1e6, "us"}};
  if (has_p99(events.size())) {
    out.named.push_back(
        {"event_p99_us", quantile(events, 0.99) * 1e6, "us"});
  }
  out.named.push_back({"recover_s", median(recovers), "s"});
  out.named.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return out;
}

}  // namespace e2e
