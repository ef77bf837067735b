// Deterministic mutation fuzz over every reader of untrusted bytes:
// read_network and the persist snapshot and WAL decoders. Valid seed inputs
// are mutated by seeded byte flips, truncation at every k-th offset, and
// header/count inflation; every mutant must either decode to a result that
// passes its structural validator or throw khop::Error. Any other exception
// (std::bad_alloc, std::length_error, ...) escapes and fails the test, and
// the sanitizer CI job runs this file to catch UB. Fast tier: well under
// two seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/dynamic/churn_engine.hpp"
#include "khop/dynamic/persist/crc32c.hpp"
#include "khop/dynamic/persist/snapshot.hpp"
#include "khop/dynamic/persist/wal.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/io/export.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

namespace fs = std::filesystem;

/// Seeded mutants of \p seed: \p flips copies with 1-4 random bit flips,
/// plus the truncation at every \p stride-th offset.
std::vector<std::string> flips_and_cuts(const std::string& seed,
                                        std::uint64_t rng_seed,
                                        std::size_t flips,
                                        std::size_t stride) {
  std::vector<std::string> out;
  Rng rng(rng_seed);
  for (std::size_t i = 0; i < flips; ++i) {
    std::string m = seed;
    const std::size_t count = 1 + rng.uniform_int(4);
    for (std::size_t j = 0; j < count; ++j) {
      m[rng.uniform_int(m.size())] ^=
          static_cast<char>(1u << rng.uniform_int(8));
    }
    out.push_back(std::move(m));
  }
  for (std::size_t cut = 0; cut < seed.size(); cut += stride) {
    out.push_back(seed.substr(0, cut));
  }
  return out;
}

/// Text mutants: flips_and_cuts plus every numeric token replaced by
/// values at and past the 32- and 64-bit limits.
std::vector<std::string> text_mutants(const std::string& seed,
                                      std::uint64_t rng_seed,
                                      std::size_t flips,
                                      std::size_t stride) {
  std::vector<std::string> out = flips_and_cuts(seed, rng_seed, flips, stride);
  static const char* const kHuge[] = {
      "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "400000000", "1e308"};
  for (std::size_t pos = 0; pos < seed.size();) {
    if (seed[pos] < '0' || seed[pos] > '9') {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < seed.size() && seed[end] != ' ' && seed[end] != '\n') ++end;
    for (const char* huge : kHuge) {
      out.push_back(seed.substr(0, pos) + huge + seed.substr(end));
    }
    pos = end;
  }
  return out;
}

AdHocNetwork small_network(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_nodes = 30;
  Rng rng(seed);
  return generate_network(cfg, rng);
}

std::string validate_network(const AdHocNetwork& net) {
  const std::size_t n = net.positions.size();
  if (n == 0 || net.graph.num_nodes() != n || net.requested_nodes != n) {
    return "node count mismatch";
  }
  if (!(net.radius > 0.0) || !(net.field.side > 0.0)) return "bad radius";
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : net.graph.neighbors(u)) {
      if (v >= n || distance_sq(net.positions[u], net.positions[v]) >
                        net.radius * net.radius) {
        return "edge longer than the radius";
      }
    }
  }
  return {};
}

std::string validate_backbone_shape(const Backbone& b) {
  const auto ascending_ids = [](const std::vector<NodeId>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == kInvalidNode || (i > 0 && ids[i] <= ids[i - 1])) {
        return false;
      }
    }
    return true;
  };
  if (!ascending_ids(b.heads) || !ascending_ids(b.gateways)) {
    return "id list not ascending in range";
  }
  const auto is_head = [&](NodeId v) {
    return std::binary_search(b.heads.begin(), b.heads.end(), v);
  };
  for (NodeId g : b.gateways) {
    if (is_head(g)) return "gateway is a head";
  }
  for (const auto& [u, v] : b.virtual_links) {
    if (u == v || !is_head(u) || !is_head(v)) return "bad virtual link";
  }
  return {};
}

/// Runs \p read over every mutant; a result must pass \p validate, and the
/// only exception allowed out of \p read is khop::Error.
template <typename Read, typename Validate>
void fuzz(const std::vector<std::string>& mutants, Read read,
          Validate validate) {
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    try {
      const auto result = read(mutants[i]);
      EXPECT_EQ(validate(result), "") << "mutant " << i;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ReaderFuzz, ReadNetwork) {
  for (const std::uint64_t seed : {11u, 12u}) {
    std::ostringstream os;
    write_network(os, small_network(seed));
    fuzz(text_mutants(os.str(), seed, 300, 3),
         [](const std::string& text) {
           std::istringstream is(text);
           return read_network(is);
         },
         validate_network);
  }
}

TEST(ReaderFuzz, ReadNetworkOverflowingSpan) {
  // Finite coordinates whose span overflows a double, and its mutants.
  const std::string seed = "2 1 10\n-1e308 0\n1e308 0\n";
  std::istringstream is(seed);
  EXPECT_THROW(read_network(is), InvalidArgument);
  fuzz(text_mutants(seed, 13, 300, 1),
       [](const std::string& text) {
         std::istringstream in(text);
         return read_network(in);
       },
       validate_network);
}

std::string fixture(const std::string& name) {
  const std::string path =
      std::string(KHOP_SOURCE_DIR) + "/tests/fixtures/persist/" + name;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = v << 8 | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

/// Binary mutants: flips_and_cuts plus 0xFFFFFFFF / 0x7FFFFFFF written
/// over every \p stride-th 4-byte window (length and count fields outside
/// any checksum).
std::vector<std::string> binary_mutants(const std::string& seed,
                                        std::uint64_t rng_seed,
                                        std::size_t flips,
                                        std::size_t stride) {
  std::vector<std::string> out = flips_and_cuts(seed, rng_seed, flips, stride);
  for (std::size_t at = 0; at + 4 <= seed.size(); at += stride) {
    for (const std::uint32_t v : {0xFFFFFFFFu, 0x7FFFFFFFu}) {
      std::string m = seed;
      put_u32(m, at, v);
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::string validate_snapshot(persist::SnapshotData snap) {
  ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
  return restored.audit();
}

/// A re-sealed mutant is checksum-valid, so a well-formed state that is
/// merely stale (say, a virtual link that is no longer a shortest path) is
/// a legal decode. What must hold is structure: a consistent topology and a
/// backbone over live, in-range nodes.
std::string validate_restored_shape(persist::SnapshotData snap) {
  const ChurnEngine restored = ChurnEngine::restore(std::move(snap.state));
  const DynamicGraph& g = restored.graph();
  if (std::string s = g.check_consistency(); !s.empty()) return s;
  const Backbone& b = restored.backbone();
  for (const std::vector<NodeId>* ids : {&b.heads, &b.gateways}) {
    for (NodeId v : *ids) {
      if (v >= g.capacity() || !g.alive(v)) return "backbone node not alive";
    }
  }
  return validate_backbone_shape(b);
}

TEST(ReaderFuzz, SnapshotDecoder) {
  const std::string seed = fixture("snapshot_n60_k2_acmesh.khsnp");
  ASSERT_FALSE(seed.empty());
  const auto decode = [](const std::string& bytes) {
    return persist::decode_snapshot(bytes);
  };
  fuzz(binary_mutants(seed, 51, 300, 5), decode, validate_snapshot);

  // Count inflation behind valid checksums: inside every section payload,
  // overwrite each 4-byte window with a huge count and re-seal the section
  // CRC, so the decoder's and restore's structural checks (not the
  // checksum) stand between the bytes and a live engine.
  std::vector<std::string> sealed;
  std::size_t pos = persist::kSnapshotMagic.size();
  while (pos + 12 <= seed.size()) {
    const std::size_t len = get_le(seed, pos + 4, 8);
    const std::size_t payload = pos + 12;
    for (std::size_t at = payload; at + 4 <= payload + len; at += 3) {
      std::string m = seed;
      put_u32(m, at, 0xFFFFFFF0u);
      put_u32(m, payload + len,
              persist::crc32c(std::string_view(m).substr(payload, len)));
      sealed.push_back(std::move(m));
    }
    pos = payload + len + 4;
  }
  ASSERT_GT(sealed.size(), 100u);
  fuzz(sealed, decode, validate_restored_shape);
}

/// WAL validator: every event the tolerant reader kept must re-encode to
/// the record payload it came from, in file order.
std::string validate_wal(const persist::WalSegment& seg,
                         const std::string& bytes) {
  if (seg.valid_bytes > bytes.size()) return "valid prefix past the end";
  std::size_t pos = persist::kWalMagic.size() + 12;
  for (const ChurnEvent& e : seg.events) {
    if (pos + 8 > bytes.size()) return "event without a record";
    const std::size_t len = get_le(bytes, pos, 4);
    if (bytes.compare(pos + 8, len, persist::encode_wal_record(e)) != 0) {
      return "event does not round-trip";
    }
    pos += 8 + len;
  }
  return {};
}

TEST(ReaderFuzz, WalDecoder) {
  const std::string seed = fixture("wal_n60_k2_acmesh.khwal");
  ASSERT_FALSE(seed.empty());
  const std::string path =
      (fs::temp_directory_path() / "khop_reader_fuzz.khwal").string();
  std::size_t index = 0;
  for (const std::string& m : binary_mutants(seed, 61, 200, 3)) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(m.data(), static_cast<std::streamsize>(m.size()));
    }
    // The tolerant reader never throws on bad bytes; it keeps a prefix.
    const persist::WalSegment seg = persist::read_wal_file(path, 120);
    EXPECT_EQ(validate_wal(seg, m), "") << "mutant " << index++;
  }
  fs::remove(path);

  // Record payloads decoded directly (the reader's CRC filter bypassed):
  // inflated neighbor counts and flipped bytes must fail as CorruptState.
  std::vector<std::string> payloads;
  const std::size_t header_bytes = persist::kWalMagic.size() + 12;
  for (std::size_t pos = header_bytes; pos + 8 <= seed.size();) {
    const std::size_t len = get_le(seed, pos, 4);
    payloads.push_back(seed.substr(pos + 8, len));
    pos += 8 + len;
  }
  ASSERT_FALSE(payloads.empty());
  std::vector<std::string> mutants;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (std::string& m : binary_mutants(payloads[i], 70 + i, 20, 1)) {
      mutants.push_back(std::move(m));
    }
  }
  fuzz(mutants,
       [](const std::string& payload) {
         return std::pair(payload, persist::decode_wal_record(payload));
       },
       [](const std::pair<std::string, ChurnEvent>& r) {
         return persist::encode_wal_record(r.second) == r.first
                    ? std::string()
                    : std::string("event does not round-trip");
       });
}

}  // namespace
}  // namespace khop
