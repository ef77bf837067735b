#include "khop/dynamic/persist/store.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <utility>

#include "khop/common/error.hpp"
#include "khop/dynamic/persist/crash_point.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/trace.hpp"

namespace khop::persist {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSnapPrefix = "snap-";
constexpr std::string_view kSnapSuffix = ".khsnp";
constexpr std::string_view kWalPrefix = "wal-";
constexpr std::string_view kWalSuffix = ".khwal";

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::string padded(std::uint64_t cursor) {
  std::ostringstream os;
  os << std::setw(12) << std::setfill('0') << cursor;
  return std::move(os).str();
}

/// Extracts the cursor from "<prefix><digits><suffix>", or false if the
/// name has any other shape (stray files are ignored, never deleted).
bool parse_cursor(const std::string& name, std::string_view prefix,
                  std::string_view suffix, std::uint64_t& cursor) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  cursor = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char ch = name[i];
    if (ch < '0' || ch > '9') return false;
    cursor = cursor * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return true;
}

struct NumberedFile {
  std::uint64_t cursor = 0;
  std::string path;
};

/// All "<prefix><digits><suffix>" files in \p dir, ascending by cursor.
std::vector<NumberedFile> list_numbered(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<NumberedFile> out;
  if (!fs::is_directory(dir)) return out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::uint64_t cursor = 0;
    if (parse_cursor(e.path().filename().string(), prefix, suffix, cursor)) {
      out.push_back({cursor, e.path().string()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const NumberedFile& a, const NumberedFile& b) {
              return a.cursor < b.cursor;
            });
  return out;
}

}  // namespace

DurableChurnEngine::DurableChurnEngine(ChurnEngine engine, std::string dir,
                                       DurabilityOptions dopts,
                                       std::uint64_t cursor)
    : engine_(std::move(engine)),
      dir_(std::move(dir)),
      dopts_(dopts),
      cursor_(cursor) {
  if (dopts_.keep_snapshots == 0) dopts_.keep_snapshots = 1;
}

std::string DurableChurnEngine::snapshot_path(std::uint64_t cursor) const {
  return dir_ + "/" + std::string(kSnapPrefix) + padded(cursor) +
         std::string(kSnapSuffix);
}

std::string DurableChurnEngine::wal_path(std::uint64_t cursor) const {
  return dir_ + "/" + std::string(kWalPrefix) + padded(cursor) +
         std::string(kWalSuffix);
}

void DurableChurnEngine::open_fresh_segment() {
  wal_ = WalWriter::create(wal_path(cursor_), cursor_, dopts_.wal_flush_every);
}

DurableChurnEngine DurableChurnEngine::create(const Graph& g0, Hops k,
                                              Pipeline pipeline,
                                              std::string dir,
                                              DurabilityOptions dopts,
                                              ChurnEngineOptions eopts) {
  fs::create_directories(dir);
  DurableChurnEngine d(ChurnEngine(g0, k, pipeline, eopts), std::move(dir),
                       dopts, /*cursor=*/0);
  // Seed the directory: the cursor-0 snapshot + empty segment make a crash
  // at ANY later point recoverable without a from-scratch rebuild.
  d.snapshot();
  return d;
}

ChurnEventReport DurableChurnEngine::apply(const ChurnEvent& e) {
  // A rejected event must not reach the WAL: every later recover() would
  // replay it and throw.
  check_event(engine_.graph(), e);
  wal_.append(e);  // durability first: the event outlives the process
  ChurnEventReport report = engine_.apply(e);
  ++cursor_;
  if (dopts_.snapshot_every != 0 && cursor_ % dopts_.snapshot_every == 0) {
    snapshot();
  }
  return report;
}

void DurableChurnEngine::snapshot() {
  obs::Span span("persist/snapshot");
  CrashPoints& cp = CrashPoints::global();
  cp.hit("snapshot.begin");
  const auto t0 = std::chrono::steady_clock::now();

  const std::string bytes = encode_snapshot(engine_, cursor_);
  const std::string final_path = snapshot_path(cursor_);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("persist: cannot create " + tmp_path);
    if (cp.fires("snapshot.torn")) {
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
      out.flush();
      throw CrashInjected("crash injected at snapshot.torn");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw Error("persist: write failed for " + tmp_path);
  }
  cp.hit("snapshot.after_tmp");
  fs::rename(tmp_path, final_path);  // atomic publish
  cp.hit("snapshot.after_rename");

  // Rotate: the snapshot owns everything before cursor_, so the next
  // segment starts exactly there.
  wal_.close();
  open_fresh_segment();
  cp.hit("snapshot.after_rotate");
  retire_old_files();

  obs::Registry& reg = obs::Registry::global();
  reg.counter("persist.snapshots").inc();
  reg.counter("persist.snapshot_bytes").add(bytes.size());
  reg.histogram("persist.snapshot_us").record(elapsed_us(t0));
  span.arg("bytes", static_cast<std::int64_t>(bytes.size()));
}

DurableChurnEngine DurableChurnEngine::recover(std::string dir,
                                               RecoveryReport* report,
                                               DurabilityOptions dopts,
                                               ChurnEngineOptions eopts) {
  obs::Span span("persist/recover");
  const auto t0 = std::chrono::steady_clock::now();
  obs::Registry& reg = obs::Registry::global();
  RecoveryReport rep;

  // Newest snapshot that loads clean wins; every newer reject is recorded.
  std::vector<NumberedFile> snaps =
      list_numbered(dir, kSnapPrefix, kSnapSuffix);
  std::optional<SnapshotData> snap;
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    try {
      snap.emplace(load_snapshot_file(it->path));
      break;
    } catch (const Error& e) {
      rep.fallbacks.push_back(
          fs::path(it->path).filename().string() + ": " + e.what());
      reg.counter("persist.snapshot_fallbacks").inc();
    }
  }
  if (!snap.has_value()) {
    std::string why = "persist: no loadable snapshot in " + dir;
    for (const std::string& f : rep.fallbacks) why += "\n  " + f;
    throw CorruptState(why);
  }
  rep.used_snapshot = true;
  rep.snapshot_cursor = snap->cursor;

  ChurnEngine engine = ChurnEngine::restore(std::move(snap->state), eopts);

  // Replay the WAL chain from the snapshot cursor. Segments rotate at
  // snapshot boundaries, so anything starting earlier ends at or before
  // this cursor and can be skipped unread.
  std::uint64_t cur = snap->cursor;
  std::size_t replayed = 0;
  for (const NumberedFile& f : list_numbered(dir, kWalPrefix, kWalSuffix)) {
    if (f.cursor < snap->cursor) continue;
    if (f.cursor > cur) {
      throw CorruptState("persist: WAL gap - events resume at " +
                         std::to_string(f.cursor) + " but replay reached " +
                         std::to_string(cur));
    }
    const WalSegment seg = read_wal_file(f.path, f.cursor);
    if (!seg.clean) {
      rep.wal_tail = fs::path(f.path).filename().string() + ": " + seg.why;
    }
    for (std::size_t i = cur - seg.start; i < seg.events.size(); ++i) {
      engine.apply(seg.events[i]);
      ++cur;
      ++replayed;
    }
  }
  rep.cursor = cur;
  rep.replayed_events = replayed;

  DurableChurnEngine d(std::move(engine), std::move(dir), dopts, cur);
  // Always a FRESH segment: appending to a torn or partially-lost segment
  // would put holes in its implicit event indexing.
  d.open_fresh_segment();

  reg.counter("persist.recoveries").inc();
  reg.counter("persist.replayed_events").add(replayed);
  reg.histogram("persist.recovery_us").record(elapsed_us(t0));
  span.arg("replayed", static_cast<std::int64_t>(replayed));
  if (report != nullptr) *report = std::move(rep);
  return d;
}

void DurableChurnEngine::retire_old_files() {
  std::vector<NumberedFile> snaps =
      list_numbered(dir_, kSnapPrefix, kSnapSuffix);
  if (snaps.size() > dopts_.keep_snapshots) {
    snaps.resize(snaps.size() - dopts_.keep_snapshots);  // the victims
    for (const NumberedFile& f : snaps) fs::remove(f.path);
  }
  const std::uint64_t oldest_kept =
      list_numbered(dir_, kSnapPrefix, kSnapSuffix).front().cursor;
  for (const NumberedFile& f : list_numbered(dir_, kWalPrefix, kWalSuffix)) {
    // A fallback to snapshot C replays wal-C onward, so every segment from
    // the oldest kept generation forward must survive.
    if (f.cursor < oldest_kept) fs::remove(f.path);
  }
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    // Torn tmp files from a crashed earlier snapshot attempt.
    if (e.is_regular_file() && e.path().extension() == ".tmp") {
      fs::remove(e.path());
    }
  }
}

}  // namespace khop::persist
