#include "khop/io/state.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/dynamic/persist/crc32c.hpp"

namespace khop {

namespace {

/// Line-tracking token scanner over a fully-slurped document. Every parse
/// error reports the 1-based line the offending token starts on. A state
/// stream holds exactly one document: anything after the final expected
/// token is rejected as trailing garbage.
class Source {
 public:
  Source(std::string text, std::string doc) : text_(std::move(text)), doc_(std::move(doc)) {
    limit_ = text_.size();
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw InvalidArgument(doc_ + ": line " + std::to_string(line_) + ": " +
                          msg);
  }

  /// Next whitespace-delimited token; fails with \p what when the document
  /// ends first.
  std::string_view token(const char* what) {
    skip_space();
    if (pos_ >= limit_) fail(std::string("missing ") + what);
    const std::size_t start = pos_;
    while (pos_ < limit_ && !is_space(text_[pos_])) ++pos_;
    return std::string_view(text_).substr(start, pos_ - start);
  }

  void expect(const char* tag) {
    const std::string_view got = token(tag);
    if (got != tag) {
      fail("expected '" + std::string(tag) + "', got '" + std::string(got) +
           "'");
    }
  }

  /// Non-negative decimal number (digits only — a sign is garbage here).
  std::uint64_t number(const char* what) {
    const std::string_view tok = token(what);
    std::uint64_t v = 0;
    for (const char ch : tok) {
      if (ch < '0' || ch > '9') {
        fail(std::string("bad ") + what + " '" + std::string(tok) + "'");
      }
      const std::uint64_t next = v * 10 + static_cast<std::uint64_t>(ch - '0');
      if (next < v) fail(std::string(what) + " overflows");
      v = next;
    }
    return v;
  }

  /// Fails unless only whitespace remains before \p boundary (or EOF).
  void done() {
    skip_space();
    if (pos_ < limit_) {
      const std::size_t len = std::min<std::size_t>(limit_ - pos_, 16);
      fail("trailing garbage '" +
           std::string(std::string_view(text_).substr(pos_, len)) + "'");
    }
  }

  /// Restricts parsing to the first \p n bytes (used to fence the v2
  /// checksum trailer off from the body scan).
  void set_limit(std::size_t n) { limit_ = n; }
  std::size_t limit() const noexcept { return limit_; }
  const std::string& text() const noexcept { return text_; }
  std::size_t pos() const noexcept { return pos_; }

 private:
  static bool is_space(char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n';
  }

  void skip_space() {
    while (pos_ < limit_ && is_space(text_[pos_])) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  std::string text_;
  std::string doc_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
  std::size_t line_ = 1;
};

std::string slurp(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

std::string crc_hex(std::uint32_t crc) {
  std::ostringstream os;
  os << std::hex << std::setw(8) << std::setfill('0') << crc;
  return std::move(os).str();
}

/// Parses the "<magic> v1|v2" header; for v2, verifies the mandatory
/// "crc32c <hex>" trailer over the body bytes (everything between the
/// header line's newline and the trailer line) and fences the trailer off
/// so the caller only ever scans checksummed bytes. Returns the version.
int open_document(Source& src, const std::string& magic) {
  src.expect(magic.c_str());
  const std::string_view version = src.token("format version");
  if (version != "v1" && version != "v2") {
    src.fail("unsupported version '" + std::string(version) + "'");
  }
  if (version == "v1") return 1;

  const std::string& text = src.text();
  const std::size_t body_start = text.find('\n', src.pos());
  if (body_start == std::string::npos) src.fail("missing body");
  // The trailer is the final non-empty line: "crc32c <8 hex digits>".
  std::size_t end = text.size();
  while (end > 0 && (text[end - 1] == '\n' || text[end - 1] == '\r')) --end;
  const std::size_t trailer = text.rfind('\n', end == 0 ? 0 : end - 1);
  if (trailer == std::string::npos || trailer < body_start) {
    src.fail("missing crc32c trailer");
  }
  const std::string_view line =
      std::string_view(text).substr(trailer + 1, end - trailer - 1);
  constexpr std::string_view kPrefix = "crc32c ";
  if (line.substr(0, kPrefix.size()) != kPrefix) {
    src.fail("missing crc32c trailer (last line is '" + std::string(line) +
             "')");
  }
  const std::string_view hex = line.substr(kPrefix.size());
  std::uint32_t want = 0;
  if (hex.size() != 8) src.fail("crc32c trailer must hold 8 hex digits");
  for (const char ch : hex) {
    int digit = 0;
    if (ch >= '0' && ch <= '9') digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f') digit = ch - 'a' + 10;
    else src.fail("bad crc32c hex digit '" + std::string(1, ch) + "'");
    want = want << 4 | static_cast<std::uint32_t>(digit);
  }
  const std::string_view body =
      std::string_view(text).substr(body_start + 1, trailer - body_start);
  const std::uint32_t got = persist::crc32c(body);
  if (got != want) {
    src.fail("checksum mismatch: body is " + crc_hex(got) + ", trailer says " +
             crc_hex(want));
  }
  src.set_limit(trailer + 1);
  return 2;
}

/// Emits "<magic> v2\n<body>crc32c <hex>\n".
void write_document(std::ostream& os, const std::string& magic,
                    const std::string& body) {
  os << magic << " v2\n" << body << "crc32c " << crc_hex(persist::crc32c(body))
     << '\n';
}

}  // namespace

void write_clustering(std::ostream& os, const Clustering& c) {
  std::ostringstream body;
  body << "k " << c.k << '\n';
  body << "rounds " << c.election_rounds << '\n';
  body << "nodes " << c.head_of.size() << '\n';
  body << "heads " << c.heads.size();
  for (NodeId h : c.heads) body << ' ' << h;
  body << '\n';
  for (NodeId v = 0; v < c.head_of.size(); ++v) {
    body << c.head_of[v] << ' ' << c.dist_to_head[v] << '\n';
  }
  write_document(os, "khop-clustering", std::move(body).str());
}

Clustering read_clustering(std::istream& is) {
  Source src(slurp(is), "clustering");
  open_document(src, "khop-clustering");
  Clustering c;
  src.expect("k");
  const std::uint64_t k = src.number("k");
  if (k < 1 || k > kUnreachable) src.fail("k out of range");
  c.k = static_cast<Hops>(k);
  src.expect("rounds");
  c.election_rounds = static_cast<std::size_t>(src.number("rounds"));
  src.expect("nodes");
  const std::uint64_t n = src.number("node count");
  if (n == 0 || n > kInvalidNode) src.fail("node count out of range");
  src.expect("heads");
  const std::uint64_t head_count = src.number("head count");
  if (head_count == 0 || head_count > n) src.fail("head count out of range");
  // Every list is appended as read, never pre-sized from a header count: a
  // count the body does not back fails as truncated instead of allocating.
  for (std::uint64_t i = 0; i < head_count; ++i) {
    const std::uint64_t h = src.number("head id");
    if (h >= n) src.fail("head id " + std::to_string(h) + " out of range");
    if (!c.heads.empty() && h <= c.heads.back()) {
      src.fail("head id " + std::to_string(h) +
               " duplicates or reorders the head list");
    }
    c.heads.push_back(static_cast<NodeId>(h));
  }
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t head = src.number("head_of");
    const std::uint64_t dist = src.number("dist_to_head");
    const auto it = std::lower_bound(c.heads.begin(), c.heads.end(), head);
    if (it == c.heads.end() || *it != head) {
      src.fail("node " + std::to_string(v) + " affiliated to non-head " +
               std::to_string(head));
    }
    if (dist > c.k || ((head == v) != (dist == 0))) {
      src.fail("node " + std::to_string(v) + " has head distance " +
               std::to_string(dist) + " (k = " + std::to_string(c.k) + ")");
    }
    c.head_of.push_back(static_cast<NodeId>(head));
    c.dist_to_head.push_back(static_cast<Hops>(dist));
    c.cluster_of.push_back(
        static_cast<std::uint32_t>(std::distance(c.heads.begin(), it)));
  }
  for (const NodeId h : c.heads) {
    if (c.head_of[h] != h) {
      src.fail("head " + std::to_string(h) + " is affiliated to " +
               std::to_string(c.head_of[h]));
    }
  }
  src.done();
  return c;
}

void write_backbone(std::ostream& os, const Backbone& b) {
  std::ostringstream body;
  body << "pipeline " << static_cast<int>(b.pipeline) << '\n';
  body << "spec " << static_cast<int>(b.spec.neighbor_rule) << ' '
       << static_cast<int>(b.spec.gateway) << ' '
       << static_cast<int>(b.spec.lmst_keep) << '\n';
  body << "heads " << b.heads.size();
  for (NodeId h : b.heads) body << ' ' << h;
  body << '\n';
  body << "gateways " << b.gateways.size();
  for (NodeId g : b.gateways) body << ' ' << g;
  body << '\n';
  body << "links " << b.virtual_links.size() << '\n';
  for (const auto& [u, v] : b.virtual_links) body << u << ' ' << v << '\n';
  write_document(os, "khop-backbone", std::move(body).str());
}

Backbone read_backbone(std::istream& is) {
  Source src(slurp(is), "backbone");
  open_document(src, "khop-backbone");
  Backbone b;
  src.expect("pipeline");
  const std::uint64_t pipeline = src.number("pipeline");
  if (pipeline > static_cast<std::uint64_t>(Pipeline::kGmst)) {
    src.fail("unknown pipeline " + std::to_string(pipeline));
  }
  b.pipeline = static_cast<Pipeline>(pipeline);
  src.expect("spec");
  const std::uint64_t rule = src.number("neighbor rule");
  const std::uint64_t gw = src.number("gateway algorithm");
  const std::uint64_t keep = src.number("lmst keep rule");
  if (rule > 2 || gw > 2 || keep > 1) src.fail("spec value out of range");
  b.spec.neighbor_rule = static_cast<NeighborRule>(rule);
  b.spec.gateway = static_cast<GatewayAlgorithm>(gw);
  b.spec.lmst_keep = static_cast<LmstKeepRule>(keep);

  src.expect("heads");
  const std::uint64_t head_count = src.number("head count");
  // Lists are appended as read, never pre-sized from a header count (see
  // read_clustering).
  for (std::uint64_t i = 0; i < head_count; ++i) {
    const std::uint64_t h = src.number("head id");
    if (h >= kInvalidNode) src.fail("head id out of range");
    if (!b.heads.empty() && h <= b.heads.back()) {
      src.fail("head id " + std::to_string(h) +
               " duplicates or reorders the head list");
    }
    b.heads.push_back(static_cast<NodeId>(h));
  }
  src.expect("gateways");
  const std::uint64_t gw_count = src.number("gateway count");
  for (std::uint64_t i = 0; i < gw_count; ++i) {
    const std::uint64_t g = src.number("gateway id");
    if (g >= kInvalidNode) src.fail("gateway id out of range");
    if (!b.gateways.empty() && g <= b.gateways.back()) {
      src.fail("gateway id " + std::to_string(g) +
               " duplicates or reorders the gateway list");
    }
    if (std::binary_search(b.heads.begin(), b.heads.end(),
                           static_cast<NodeId>(g))) {
      src.fail("gateway " + std::to_string(g) + " is also a head");
    }
    b.gateways.push_back(static_cast<NodeId>(g));
  }
  src.expect("links");
  const std::uint64_t link_count = src.number("link count");
  for (std::uint64_t i = 0; i < link_count; ++i) {
    const std::uint64_t u = src.number("link endpoint");
    const std::uint64_t v = src.number("link endpoint");
    // Range-checked before narrowing: 2^32 + h must not alias head h.
    if (u >= kInvalidNode || v >= kInvalidNode || u == v ||
        !std::binary_search(b.heads.begin(), b.heads.end(),
                            static_cast<NodeId>(u)) ||
        !std::binary_search(b.heads.begin(), b.heads.end(),
                            static_cast<NodeId>(v))) {
      src.fail("virtual link {" + std::to_string(u) + ", " +
               std::to_string(v) + "} does not join two distinct heads");
    }
    b.virtual_links.emplace_back(static_cast<NodeId>(u),
                                 static_cast<NodeId>(v));
  }
  src.done();
  return b;
}

}  // namespace khop
