// The .gcsr lock-down suite (graph/binfmt.hpp; DESIGN.md §14).
//
// Three layers of guarantees, each pinned here:
//
//   1. Round-trip properties — for every test family, the mapped CSR arrays
//      and the persisted weight stats are bit-identical to the in-memory
//      originals (not approximately: memcmp); a file an earlier build wrote
//      with trailing presplit sections opens as the same graph.
//   2. End-to-end parity — estimate/SSSP runs on a mapped graph are
//      bit-identical to runs on a text-ingested copy across every transport
//      and partition count.
//   3. Corruption rejection — a .gcsr that is truncated, bit-flipped,
//      version-bumped, misaligned or torn by an injected write fault is
//      rejected with the contracted typed BinfmtErrc, never a crash and
//      never a half-valid Graph. The corruption helpers re-stamp the
//      checksums the validator checks *before* the mutated field, so each
//      test fails on exactly the check it targets.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/diameter.hpp"
#include "exec/context.hpp"
#include "graph/binfmt.hpp"
#include "graph/io.hpp"
#include "graph/split_csr.hpp"
#include "serve/graphs.hpp"
#include "sssp/delta_stepping.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"

namespace gdiam::io {
namespace {

// --- on-disk layout constants (frozen; mirrored from binfmt.cpp) -----------

constexpr std::size_t kHeaderSize = 128;
constexpr std::size_t kHeaderChecksumOff = 120;  // u64, over bytes [0, 120)
constexpr std::size_t kVersionOff = 8;           // u32
constexpr std::size_t kFlagsOff = 12;            // u32
constexpr std::size_t kNumNodesOff = 16;         // u64
constexpr std::size_t kWeightKindOff = 32;       // u32
constexpr std::size_t kSectionCountOff = 36;     // u32
constexpr std::size_t kTableOffOff = 40;         // u64
constexpr std::size_t kEntrySize = 40;
constexpr std::size_t kEntryKindOff = 0;      // u32
constexpr std::size_t kEntryOffsetOff = 8;    // u64
constexpr std::size_t kEntryLengthOff = 16;   // u64
constexpr std::size_t kEntryChecksumOff = 24; // u64
constexpr std::size_t kEntryDeltaOff = 32;    // f64, presplit entries only

// --- fixture ---------------------------------------------------------------

class BinfmtTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    std::string p = ::testing::TempDir() + "gdiam_binfmt_" +
                    std::to_string(::getpid()) + "_" + name;
    files_.push_back(p);
    return p;
  }

  void TearDown() override {
    util::fault::disarm();
    for (const auto& f : files_) ::unlink(f.c_str());
  }

 private:
  std::vector<std::string> files_;
};

/// Paths in `prefix`'s directory whose names start with its file name: the
/// file itself plus any sibling a writer left behind.
std::vector<std::string> entries_starting_with(const std::string& prefix) {
  const std::filesystem::path p(prefix);
  const std::string stem = p.filename().string();
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(p.parent_path())) {
    if (e.path().filename().string().starts_with(stem)) {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- byte-surgery helpers --------------------------------------------------

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

template <typename T>
T rd(const std::vector<unsigned char>& b, std::size_t off) {
  T v{};
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

template <typename T>
void wr(std::vector<unsigned char>& b, std::size_t off, T v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}

void restamp_header(std::vector<unsigned char>& b) {
  wr<std::uint64_t>(b, kHeaderChecksumOff,
                    gcsr_checksum(b.data(), kHeaderChecksumOff));
}

void restamp_table(std::vector<unsigned char>& b) {
  const auto count = rd<std::uint32_t>(b, kSectionCountOff);
  const auto toff = rd<std::uint64_t>(b, kTableOffOff);
  const std::size_t table_bytes = std::size_t{count} * kEntrySize;
  wr<std::uint64_t>(b, toff + table_bytes,
                    gcsr_checksum(b.data() + toff, table_bytes));
}

/// Byte offset of the i-th section table entry.
std::size_t entry_at(const std::vector<unsigned char>& b, std::size_t i) {
  return rd<std::uint64_t>(b, kTableOffOff) + i * kEntrySize;
}

/// The typed code a failing open produces, or nullopt when it succeeds.
std::optional<BinfmtErrc> open_code(const std::string& path,
                                    const GcsrOpenOptions& opts = {}) {
  try {
    (void)open_mmap(path, opts);
  } catch (const BinfmtError& e) {
    return e.code();
  }
  return std::nullopt;
}

template <typename T>
bool bits_equal(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  return a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_csr(const Graph& a, const Graph& b) {
  return bits_equal(a.offsets(), b.offsets()) &&
         bits_equal(a.targets(), b.targets()) &&
         bits_equal(a.edge_weights(), b.edge_weights());
}

/// Rewrites the plain image `plain` of `g` the way earlier builds laid out
/// a file persisting the presplit layout for `delta`: the (split, targets,
/// weights) payloads after the graph sections, table entries of kinds 4–6
/// carrying the Δ, section_count 6 and the has-presplit flag, with the
/// header and table checksums re-stamped.
std::vector<unsigned char> with_legacy_sidecar(
    const std::vector<unsigned char>& plain, const Graph& g, Weight delta) {
  const auto toff = rd<std::uint64_t>(plain, kTableOffOff);
  std::vector<unsigned char> b(plain.begin(),
                               plain.begin() + static_cast<std::ptrdiff_t>(toff));
  const auto pad = [&b] { b.resize((b.size() + 63) / 64 * 64, 0); };
  const CsrSplit split = presplit_csr(g.offsets(), g.targets(),
                                      g.edge_weights(), delta);
  struct Payload {
    std::uint32_t kind;
    const void* data;
    std::size_t length;
  };
  const Payload payloads[3] = {
      {4, split.split.data(), split.split.size() * sizeof(EdgeIndex)},
      {5, split.targets.data(), split.targets.size() * sizeof(NodeId)},
      {6, split.weights.data(), split.weights.size() * sizeof(Weight)}};
  std::vector<unsigned char> entries(3 * kEntrySize, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    pad();
    const std::size_t e = i * kEntrySize;
    wr<std::uint32_t>(entries, e + kEntryKindOff, payloads[i].kind);
    wr<std::uint64_t>(entries, e + kEntryOffsetOff, b.size());
    wr<std::uint64_t>(entries, e + kEntryLengthOff, payloads[i].length);
    wr<std::uint64_t>(entries, e + kEntryChecksumOff,
                      gcsr_checksum(payloads[i].data, payloads[i].length));
    wr<double>(entries, e + kEntryDeltaOff, delta);
    const auto* p = static_cast<const unsigned char*>(payloads[i].data);
    b.insert(b.end(), p, p + payloads[i].length);
  }
  pad();
  const std::size_t new_toff = b.size();
  b.insert(b.end(), plain.begin() + static_cast<std::ptrdiff_t>(toff),
           plain.begin() + static_cast<std::ptrdiff_t>(toff + 3 * kEntrySize));
  b.insert(b.end(), entries.begin(), entries.end());
  b.resize(b.size() + sizeof(std::uint64_t), 0);  // table checksum slot
  wr<std::uint32_t>(b, kFlagsOff, 1);
  wr<std::uint32_t>(b, kSectionCountOff, 6);
  wr<std::uint64_t>(b, kTableOffOff, new_toff);
  restamp_header(b);
  restamp_table(b);
  return b;
}

/// Writes g as a full-precision edge list ("%.17g" round-trips every double
/// exactly) so the text-ingest arm of the parity tests carries bit-identical
/// weights. io::write_edge_list streams default precision — fine for humans,
/// not for a bit-parity contract.
void write_exact_edge_list(const Graph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  for (const Edge& e : to_edge_list(g)) {
    std::fprintf(f, "%u %u %.17g\n", e.u, e.v, e.w);
  }
  ASSERT_EQ(std::fclose(f), 0);
}

mr::RoundStats zero_wire(mr::RoundStats s) {
  s.wire_messages = 0;
  s.wire_bytes = 0;
  return s;
}

// --- 1. round-trip properties ----------------------------------------------

TEST_F(BinfmtTest, RoundTripIsBitIdenticalForEveryFamily) {
  int i = 0;
  for (const test::Family f : test::all_families()) {
    SCOPED_TRACE(test::family_name(f));
    const Graph g = test::make_family(f, 120, 42 + i);
    const std::string p = path(std::string("rt_") + test::family_name(f) +
                               ".gcsr");
    write_gcsr(g, p);

    const MappedGraph m = open_mmap(p);
    const Graph& h = m.graph();
    EXPECT_TRUE(h.is_mapped());
    EXPECT_EQ(h.num_nodes(), g.num_nodes());
    EXPECT_EQ(h.num_directed_edges(), g.num_directed_edges());
    EXPECT_TRUE(same_csr(g, h));
    // Persisted weight stats are the exact doubles, not recomputed ones.
    EXPECT_EQ(h.min_weight(), g.min_weight());
    EXPECT_EQ(h.max_weight(), g.max_weight());
    EXPECT_EQ(h.avg_weight(), g.avg_weight());
    ++i;
  }
}

TEST_F(BinfmtTest, RoundTripsDegenerateGraphs) {
  for (const NodeId n : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    SCOPED_TRACE(n);
    const Graph g = build_graph(n, {});  // no edges at all
    const std::string p = path("tiny_" + std::to_string(n) + ".gcsr");
    write_gcsr(g, p);
    const MappedGraph m = open_mmap(p);
    EXPECT_EQ(m.graph().num_nodes(), n);
    EXPECT_EQ(m.graph().num_directed_edges(), 0u);
    EXPECT_TRUE(same_csr(g, m.graph()));
  }
}

TEST_F(BinfmtTest, FingerprintIsAFunctionOfTheGraphAlone) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 100, 7);
  const std::string a = path("fp_a.gcsr");
  const std::string b = path("fp_b.gcsr");
  write_gcsr(g, a);
  write_gcsr(g, b);
  EXPECT_EQ(open_mmap(a).fingerprint(), open_mmap(b).fingerprint());

  const Graph other = test::make_family(test::Family::kGnmUniform, 100, 8);
  const std::string c = path("fp_c.gcsr");
  write_gcsr(other, c);
  EXPECT_NE(open_mmap(a).fingerprint(), open_mmap(c).fingerprint());
}

TEST_F(BinfmtTest, MappingOutlivesTheMappedGraphObject) {
  const Graph src = test::make_family(test::Family::kTreePlusChords, 80, 3);
  const std::string p = path("keepalive.gcsr");
  write_gcsr(src, p);
  Graph g;
  {
    const MappedGraph m = open_mmap(p);
    g = m.graph();
  }  // m is gone; g's backing keeps the mapping alive
  EXPECT_TRUE(g.is_mapped());
  EXPECT_TRUE(same_csr(src, g));
  EXPECT_TRUE(g.validate());
}

TEST_F(BinfmtTest, OpensFilesWithLegacyPresplitSections) {
  const Graph g = test::make_family(test::Family::kGnmUniform, 150, 11);
  const std::string plain = path("legacy_plain.gcsr");
  const std::string legacy = path("legacy_sidecar.gcsr");
  write_gcsr(g, plain);
  const auto plain_bytes = slurp(plain);
  const auto legacy_bytes = with_legacy_sidecar(plain_bytes, g, 0.1);
  dump(legacy, legacy_bytes);
  ASSERT_GT(legacy_bytes.size(), plain_bytes.size());

  // The trailing entries are ignored: same CSR, stats and fingerprint.
  const MappedGraph m = open_mmap(legacy);
  EXPECT_TRUE(same_csr(g, m.graph()));
  EXPECT_EQ(m.graph().avg_weight(), g.avg_weight());
  EXPECT_EQ(m.fingerprint(), open_mmap(plain).fingerprint());
  EXPECT_EQ(m.file_bytes(), legacy_bytes.size());

  // Re-converting it (what gdiam_convert runs) writes the plain image back.
  const std::string again = path("legacy_again.gcsr");
  write_gcsr(serve::make_graph("file:" + legacy), again);
  EXPECT_EQ(slurp(again), plain_bytes);

  // The table checksum still covers the ignored entries.
  auto flipped = legacy_bytes;
  flipped[entry_at(flipped, 4) + kEntryChecksumOff] ^= 0x01;
  dump(legacy, flipped);
  EXPECT_EQ(open_code(legacy), BinfmtErrc::kChecksumMismatch);
}

// --- 2. end-to-end parity ----------------------------------------------------

struct ParityConfig {
  std::uint32_t partitions;
  mr::TransportKind transport;
  std::uint32_t processes;
  const char* name;
};

sssp::DeltaSteppingOptions sssp_opts(const ParityConfig& c) {
  sssp::DeltaSteppingOptions o;
  o.delta = 0.0;  // heuristic Δ = avg weight: exercises the persisted stat
  o.partition.num_partitions = c.partitions;
  o.transport.kind = c.transport;
  o.transport.processes = c.processes;
  return o;
}

/// Both transports × K ∈ {1, 2, 7}; the pool needs a partitioned run, so
/// K=1 pairs only with the local transport.
std::vector<ParityConfig> parity_configs() {
  return {
      {1, mr::TransportKind::kLocal, 1, "K1/local"},
      {2, mr::TransportKind::kLocal, 1, "K2/local"},
      {2, mr::TransportKind::kPool, 2, "K2/pool"},
      {7, mr::TransportKind::kLocal, 1, "K7/local"},
      {7, mr::TransportKind::kPool, 2, "K7/pool"},
  };
}

TEST_F(BinfmtTest, SsspParityTextVsMmapAcrossTransports) {
  int i = 0;
  for (const test::Family f : test::all_families()) {
    SCOPED_TRACE(test::family_name(f));
    const Graph built = test::make_family(f, 110, 77 + i);
    const std::string tp = path(std::string("par_") + test::family_name(f) +
                                ".el");
    const std::string bp = path(std::string("par_") + test::family_name(f) +
                                ".gcsr");
    write_exact_edge_list(built, tp);
    write_gcsr(built, bp);

    const Graph text = read_edge_list_file(tp, /*compact_ids=*/false);
    ASSERT_EQ(text.num_nodes(), built.num_nodes());
    const Graph mapped = open_mmap(bp).graph();

    exec::Context text_ctx;
    exec::Context map_ctx;

    for (const ParityConfig& c : parity_configs()) {
      SCOPED_TRACE(c.name);
      const auto opts = sssp_opts(c);
      const auto a = sssp::delta_stepping(text, 0, opts, &text_ctx);
      const auto b = sssp::delta_stepping(mapped, 0, opts, &map_ctx);
      EXPECT_EQ(a.dist, b.dist);
      EXPECT_EQ(a.eccentricity, b.eccentricity);
      EXPECT_EQ(a.farthest, b.farthest);
      EXPECT_EQ(a.delta_used, b.delta_used);  // heuristic Δ from same avg
      EXPECT_EQ(a.buckets_processed, b.buckets_processed);
      // Wire counters depend on transport framing, not the graph source —
      // zeroed the same way tests/test_transport.cpp compares them.
      EXPECT_EQ(zero_wire(a.stats), zero_wire(b.stats));
    }
    ++i;
  }
}

TEST_F(BinfmtTest, DiameterEstimateParityTextVsMmapAcrossTransports) {
  const Graph built = test::make_family(test::Family::kGnmUniform, 140, 19);
  const std::string tp = path("diam.el");
  const std::string bp = path("diam.gcsr");
  write_exact_edge_list(built, tp);
  write_gcsr(built, bp);

  const Graph text = read_edge_list_file(tp, /*compact_ids=*/false);
  const MappedGraph m = open_mmap(bp);
  const Graph mapped = m.graph();

  for (const ParityConfig& c : parity_configs()) {
    SCOPED_TRACE(c.name);
    core::DiameterApproxOptions opts;
    opts.cluster.tau = 4;
    opts.cluster.seed = 5;
    opts.cluster.partition.num_partitions = c.partitions;
    opts.cluster.transport.kind = c.transport;
    opts.cluster.transport.processes = c.processes;
    const auto a = core::approximate_diameter(text, opts);
    const auto b = core::approximate_diameter(mapped, opts);
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.estimate_classic, b.estimate_classic);
    EXPECT_EQ(a.quotient_diam, b.quotient_diam);
    EXPECT_EQ(a.radius, b.radius);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    EXPECT_EQ(a.clustering.center_of, b.clustering.center_of);
    EXPECT_EQ(zero_wire(a.stats), zero_wire(b.stats));
  }
}

// --- 3. corruption rejection ------------------------------------------------

/// One valid fixture shared by the negative tests: a small plain graph.
Graph corruption_fixture(const std::string& p) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 64, 13);
  write_gcsr(g, p);
  return g;
}

TEST_F(BinfmtTest, RejectsTruncationAtEveryLayer) {
  const std::string p = path("trunc.gcsr");
  (void)corruption_fixture(p);
  const auto bytes = slurp(p);
  // Inside the header; inside the payloads (table unreachable); missing
  // final table-checksum word.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{64}, std::size_t{127}, bytes.size() / 2,
        bytes.size() - 4}) {
    SCOPED_TRACE(cut);
    dump(p, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    EXPECT_EQ(open_code(p), BinfmtErrc::kTruncated);
  }
}

TEST_F(BinfmtTest, RejectsBadMagic) {
  const std::string p = path("magic.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  bytes[0] ^= 0xff;  // checked before any checksum: no re-stamp needed
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadMagic);
}

TEST_F(BinfmtTest, RejectsFutureVersion) {
  const std::string p = path("version.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint32_t>(bytes, kVersionOff, kGcsrVersion + 1);
  // The version check runs before the header checksum by contract, so a
  // future-version file is reported as such even with a stale checksum…
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadVersion);
  // …and of course with a valid one.
  restamp_header(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadVersion);
}

TEST_F(BinfmtTest, RejectsHeaderBitFlip) {
  const std::string p = path("header.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint64_t>(bytes, kNumNodesOff,
                    rd<std::uint64_t>(bytes, kNumNodesOff) + 1);
  dump(p, bytes);  // no re-stamp: the header checksum must catch it
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadHeader);
}

TEST_F(BinfmtTest, RejectsUnknownWeightKind) {
  const std::string p = path("wkind.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  wr<std::uint32_t>(bytes, kWeightKindOff, 7);
  restamp_header(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadWeightKind);
}

TEST_F(BinfmtTest, RejectsPayloadBitFlip) {
  const std::string p = path("payload.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  // Flip one byte inside the targets payload (section table entry 1).
  const auto off = rd<std::uint64_t>(bytes, entry_at(bytes, 1) +
                                                kEntryOffsetOff);
  bytes[off] ^= 0x01;
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kChecksumMismatch);
  // verify_checksums=false skips the payload pass — but the fingerprint in
  // the header no longer matches what this section's stored checksum feeds
  // into, so nothing here silently succeeds; flipping a *weights* byte and
  // disabling verification is the documented trust tradeoff.
  EXPECT_EQ(open_code(p, {.verify_checksums = false}), std::nullopt);
}

TEST_F(BinfmtTest, RejectsTableBitFlip) {
  const std::string p = path("table.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  const std::size_t e1 = entry_at(bytes, 1);
  wr<std::uint64_t>(bytes, e1 + kEntryChecksumOff,
                    rd<std::uint64_t>(bytes, e1 + kEntryChecksumOff) ^ 1);
  dump(p, bytes);  // table checksum not re-stamped: it must catch this
  EXPECT_EQ(open_code(p), BinfmtErrc::kChecksumMismatch);
}

TEST_F(BinfmtTest, RejectsMisalignedSection) {
  const std::string p = path("align.gcsr");
  (void)corruption_fixture(p);
  auto bytes = slurp(p);
  const std::size_t e1 = entry_at(bytes, 1);
  wr<std::uint64_t>(bytes, e1 + kEntryOffsetOff,
                    rd<std::uint64_t>(bytes, e1 + kEntryOffsetOff) + 8);
  restamp_table(bytes);  // past the table check, onto the alignment check
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kMisalignedSection);
}

TEST_F(BinfmtTest, RejectsWrongSectionKindAndLength) {
  const std::string p = path("kind.gcsr");
  (void)corruption_fixture(p);
  const auto pristine = slurp(p);

  auto bytes = pristine;
  wr<std::uint32_t>(bytes, entry_at(bytes, 0) + kEntryKindOff, 9);
  restamp_table(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadSection);

  bytes = pristine;
  const std::size_t e2 = entry_at(bytes, 2);
  wr<std::uint64_t>(bytes, e2 + kEntryLengthOff,
                    rd<std::uint64_t>(bytes, e2 + kEntryLengthOff) - 8);
  restamp_table(bytes);
  dump(p, bytes);
  EXPECT_EQ(open_code(p), BinfmtErrc::kBadSection);
}

TEST_F(BinfmtTest, WriteFaultsSurfaceAsTypedIoErrors) {
  const Graph g = test::make_family(test::Family::kMeshUniform, 64, 13);
  const std::string p = path("fault.gcsr");

  util::fault::arm("io.write=errno:5@2");
  try {
    write_gcsr(g, p);
    FAIL() << "armed errno fault did not fail the write";
  } catch (const BinfmtError& e) {
    EXPECT_EQ(e.code(), BinfmtErrc::kIoError);
  }
  EXPECT_EQ(util::fault::fired("io.write"), 1u);
  util::fault::disarm();

  // A short write tears the temporary file mid-section; neither a torn file
  // at the target nor the temporary file may remain.
  util::fault::arm("io.write=short@2");
  EXPECT_THROW(write_gcsr(g, p), BinfmtError);
  util::fault::disarm();
  EXPECT_TRUE(entries_starting_with(p).empty()) << "write left files behind";

  // With faults disarmed the same write succeeds and round-trips.
  write_gcsr(g, p);
  EXPECT_TRUE(same_csr(g, open_mmap(p).graph()));

  // A failed write over an existing file leaves the old file in place.
  const Graph other = test::make_family(test::Family::kMeshUniform, 100, 17);
  util::fault::arm("io.write=short@2");
  EXPECT_THROW(write_gcsr(other, p), BinfmtError);
  util::fault::disarm();
  EXPECT_TRUE(same_csr(g, open_mmap(p).graph()));
  EXPECT_EQ(entries_starting_with(p), std::vector<std::string>{p});
}

TEST_F(BinfmtTest, WritingAMappedGraphOntoItsOwnPathKeepsIt) {
  const Graph g = test::make_family(test::Family::kRmatGiant, 300, 7);
  const std::string p = path("self.gcsr");
  write_gcsr(g, p);
  {
    const MappedGraph m = open_mmap(p);
    write_gcsr(m.graph(), p);  // reads from the mapping it replaces
    EXPECT_TRUE(same_csr(g, m.graph()));
  }
  EXPECT_TRUE(same_csr(g, open_mmap(p).graph()));
  EXPECT_EQ(entries_starting_with(p), std::vector<std::string>{p});
}

TEST_F(BinfmtTest, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(to_string(BinfmtErrc::kBadMagic), "bad_magic");
  EXPECT_STREQ(to_string(BinfmtErrc::kChecksumMismatch), "checksum_mismatch");
  // what() carries the path for log-grepping.
  const std::string p = path("absent.gcsr");
  try {
    (void)open_mmap(p);
    FAIL() << "opened a nonexistent file";
  } catch (const BinfmtError& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
  }
}

}  // namespace
}  // namespace gdiam::io
