#include "khop/dynamic/persist/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/dynamic/persist/binio.hpp"
#include "khop/dynamic/persist/crc32c.hpp"

namespace khop::persist {

namespace {

enum : std::uint32_t {
  kEndTag = 0,
  kMetaTag = 1,
  kGraphTag = 2,
  kClusteringTag = 3,
  kStatsTag = 4,
  kLinksTag = 5,
};

void put_section(ByteWriter& out, std::uint32_t tag, const std::string& body) {
  out.put_u32(tag);
  out.put_u64(body.size());
  out.put_bytes(body);
  out.put_u32(crc32c(body));
}

/// Reads the next section, which must carry \p want_tag, and verifies its
/// checksum. Returns the payload (a view into the file bytes).
std::string_view get_section(ByteReader& in, std::uint32_t want_tag) {
  const std::uint32_t tag = in.get_u32();
  if (tag != want_tag) {
    throw CorruptState("snapshot: expected section " +
                       std::to_string(want_tag) + ", found " +
                       std::to_string(tag));
  }
  const std::uint64_t len = in.get_u64();
  if (len > in.remaining()) {
    throw CorruptState("snapshot: section " + std::to_string(tag) +
                       " length " + std::to_string(len) +
                       " exceeds remaining file size");
  }
  const std::string_view payload = in.get_bytes(static_cast<std::size_t>(len));
  const std::uint32_t crc = in.get_u32();
  if (crc32c(payload) != crc) {
    throw CorruptState("snapshot: checksum mismatch in section " +
                       std::to_string(tag));
  }
  return payload;
}

void put_counters(ByteWriter& w, const ChurnCounters& c) {
  w.put_u64(c.events);
  w.put_u64(c.fails);
  w.put_u64(c.joins);
  w.put_u64(c.link_downs);
  w.put_u64(c.link_ups);
  w.put_u64(c.noop_events);
  w.put_u64(c.full_rebuilds);
  w.put_u64(c.orphans);
  w.put_u64(c.reaffiliations);
  w.put_u64(c.new_heads);
  w.put_u64(c.heads_resweeped);
  w.put_u64(c.touched_nodes);
  w.put_u64(c.partitions);
  w.put_u64(c.merges);
  w.put_u64(c.audits);
}

void get_counters(ByteReader& r, ChurnCounters& c) {
  c.events = r.get_u64();
  c.fails = r.get_u64();
  c.joins = r.get_u64();
  c.link_downs = r.get_u64();
  c.link_ups = r.get_u64();
  c.noop_events = r.get_u64();
  c.full_rebuilds = r.get_u64();
  c.orphans = r.get_u64();
  c.reaffiliations = r.get_u64();
  c.new_heads = r.get_u64();
  c.heads_resweeped = r.get_u64();
  c.touched_nodes = r.get_u64();
  c.partitions = r.get_u64();
  c.merges = r.get_u64();
  c.audits = r.get_u64();
}

}  // namespace

std::string encode_snapshot(const ChurnEngine& engine, std::uint64_t cursor) {
  const DynamicGraph& g = engine.graph();
  const Clustering& c = engine.clustering();
  const std::size_t cap = g.capacity();

  ByteWriter out;
  out.put_bytes(kSnapshotMagic);

  {
    ByteWriter meta;
    meta.put_u64(cursor);
    meta.put_u64(cap);
    meta.put_u32(engine.k());
    meta.put_u8(static_cast<std::uint8_t>(engine.pipeline()));
    meta.put_u64(engine.num_components());
    put_section(out, kMetaTag, meta.bytes());
  }
  {
    ByteWriter graph;
    for (NodeId u = 0; u < cap; ++u) {
      graph.put_u8(g.alive(u) ? 1 : 0);
      const auto nbrs = g.neighbors(u);
      graph.put_u32(static_cast<std::uint32_t>(nbrs.size()));
      for (NodeId v : nbrs) graph.put_u32(v);
    }
    put_section(out, kGraphTag, graph.bytes());
  }
  {
    ByteWriter cl;
    cl.put_u32(static_cast<std::uint32_t>(c.heads.size()));
    for (NodeId h : c.heads) cl.put_u32(h);
    for (NodeId v = 0; v < cap; ++v) cl.put_u32(c.head_of[v]);
    for (NodeId v = 0; v < cap; ++v) cl.put_u32(c.dist_to_head[v]);
    put_section(out, kClusteringTag, cl.bytes());
  }
  {
    ByteWriter st;
    put_counters(st, engine.stats());
    put_counters(st, engine.stats().published);
    put_section(out, kStatsTag, st.bytes());
  }
  {
    ByteWriter li;
    const VirtualLinkMap& links = engine.virtual_links();
    li.put_u32(static_cast<std::uint32_t>(links.all().size()));
    for (const VirtualLink& l : links.all()) {
      li.put_u32(l.u);
      li.put_u32(l.v);
      li.put_u32(l.hops);
      li.put_u32(l.length);
      for (NodeId w : links.path(l)) li.put_u32(w);
    }
    put_section(out, kLinksTag, li.bytes());
  }
  put_section(out, kEndTag, std::string());
  return std::move(out).take();
}

SnapshotData decode_snapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotMagic.size() ||
      bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    throw CorruptState("snapshot: bad magic (not a KHOPSNP1 file)");
  }
  ByteReader in(bytes.substr(kSnapshotMagic.size()));

  ByteReader meta(get_section(in, kMetaTag));
  const std::uint64_t cursor = meta.get_u64();
  const std::uint64_t cap64 = meta.get_u64();
  const Hops k = meta.get_u32();
  const std::uint8_t pipeline_raw = meta.get_u8();
  const std::uint64_t num_components = meta.get_u64();
  if (!meta.at_end()) throw CorruptState("snapshot: oversized meta section");
  if (pipeline_raw > static_cast<std::uint8_t>(Pipeline::kGmst)) {
    throw CorruptState("snapshot: unknown pipeline " +
                       std::to_string(pipeline_raw));
  }
  // Guards the allocations below against a corrupt capacity that slipped
  // past the checksum (e.g. a hand-damaged fixture): every node takes at
  // least 5 graph-section bytes (alive flag and degree), so a capacity the
  // section cannot hold is rejected before anything is sized by it.
  ByteReader gr(get_section(in, kGraphTag));
  if (cap64 > gr.remaining() / 5) {
    throw CorruptState("snapshot: implausible capacity " +
                       std::to_string(cap64) + " for a " +
                       std::to_string(gr.remaining()) +
                       "-byte graph section");
  }
  const std::size_t cap = static_cast<std::size_t>(cap64);

  std::vector<std::vector<NodeId>> adj(cap);
  std::vector<char> alive(cap, 0);
  for (std::size_t u = 0; u < cap; ++u) {
    alive[u] = static_cast<char>(gr.get_u8() != 0);
    const std::uint32_t deg = gr.get_u32();
    if (std::uint64_t{deg} * 4 > gr.remaining()) {
      throw CorruptState("snapshot: node degree " + std::to_string(deg) +
                         " exceeds section size");
    }
    adj[u].reserve(deg);
    for (std::uint32_t i = 0; i < deg; ++i) adj[u].push_back(gr.get_u32());
  }
  if (!gr.at_end()) throw CorruptState("snapshot: oversized graph section");

  ByteReader cl(get_section(in, kClusteringTag));
  Clustering c;
  c.k = k;
  const std::uint32_t head_count = cl.get_u32();
  if (std::uint64_t{head_count} * 4 > cl.remaining()) {
    throw CorruptState("snapshot: head count " + std::to_string(head_count) +
                       " exceeds section size");
  }
  c.heads.reserve(head_count);
  for (std::uint32_t i = 0; i < head_count; ++i) c.heads.push_back(cl.get_u32());
  c.head_of.reserve(cap);
  for (std::size_t v = 0; v < cap; ++v) c.head_of.push_back(cl.get_u32());
  c.dist_to_head.reserve(cap);
  for (std::size_t v = 0; v < cap; ++v) c.dist_to_head.push_back(cl.get_u32());
  if (!cl.at_end()) {
    throw CorruptState("snapshot: oversized clustering section");
  }

  ByteReader st(get_section(in, kStatsTag));
  ChurnStats stats;
  get_counters(st, stats);
  get_counters(st, stats.published);
  if (!st.at_end()) throw CorruptState("snapshot: oversized stats section");

  ByteReader li(get_section(in, kLinksTag));
  const std::uint32_t link_count = li.get_u32();
  if (std::uint64_t{link_count} * 16 > li.remaining()) {
    throw CorruptState("snapshot: link count " + std::to_string(link_count) +
                       " exceeds section size");
  }
  // Headers and paths go straight into one block: what remains of the
  // section after the 16-byte headers is the paths' 4-byte nodes.
  std::vector<VirtualLinkBlock> links(1);
  VirtualLinkBlock& block = links.front();
  block.links.reserve(link_count);
  block.arena.reserve((li.remaining() - std::size_t{link_count} * 16) / 4);
  for (std::uint32_t i = 0; i < link_count; ++i) {
    VirtualLink l;
    l.u = li.get_u32();
    l.v = li.get_u32();
    l.hops = li.get_u32();
    l.length = li.get_u32();
    l.offset = block.arena.size();
    if (l.u >= l.v) {
      throw CorruptState("snapshot: virtual link endpoints unordered");
    }
    // The link index is sized by the largest source id.
    if (l.v >= cap) {
      throw CorruptState("snapshot: virtual link endpoint " +
                         std::to_string(l.v) + " beyond capacity");
    }
    if (std::uint64_t{l.length} * 4 > li.remaining()) {
      throw CorruptState("snapshot: link path length " +
                         std::to_string(l.length) + " exceeds section size");
    }
    for (std::uint32_t j = 0; j < l.length; ++j) {
      block.arena.push_back(li.get_u32());
    }
    block.links.push_back(l);
  }
  if (!li.at_end()) throw CorruptState("snapshot: oversized links section");
  // from_links requires unique (u, v) keys — enforce before handing over.
  {
    std::vector<std::pair<NodeId, NodeId>> keys;
    keys.reserve(block.links.size());
    for (const VirtualLink& l : block.links) keys.emplace_back(l.u, l.v);
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      throw CorruptState("snapshot: duplicate virtual link");
    }
  }

  ByteReader end(get_section(in, kEndTag));
  if (!end.at_end()) throw CorruptState("snapshot: non-empty end section");
  if (!in.at_end()) {
    throw CorruptState("snapshot: " + std::to_string(in.remaining()) +
                       " trailing bytes after end section");
  }

  SnapshotData out{
      ChurnEngineRestore{
          DynamicGraph::from_state(std::move(adj), std::move(alive)), k,
          static_cast<Pipeline>(pipeline_raw), std::move(c),
          VirtualLinkMap::from_links(std::move(links)),
          static_cast<std::size_t>(num_components), stats},
      cursor};
  return out;
}

SnapshotData load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CorruptState("snapshot: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = std::move(ss).str();
  return decode_snapshot(bytes);
}

}  // namespace khop::persist
