#include "graph/binfmt.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "util/fault.hpp"

namespace gdiam::io {

namespace {

constexpr char kMagic[8] = {'g', 'd', 'i', 'a', 'm', 'C', 'S', 'R'};
constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kWeightKindF64 = 0;

// Section kinds, in the order they appear in a file.
constexpr std::uint32_t kSecOffsets = 1;
constexpr std::uint32_t kSecTargets = 2;
constexpr std::uint32_t kSecWeights = 3;
constexpr std::uint32_t kGraphSections = 3;

/// 128-byte on-disk header. The layout is frozen: future format versions
/// may only reinterpret `reserved`, so version checking always works.
struct GcsrHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_arcs = 0;
  std::uint32_t weight_kind = 0;
  std::uint32_t section_count = 0;
  std::uint64_t section_table_off = 0;
  double min_weight = 0.0;
  double max_weight = 0.0;
  double avg_weight = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint8_t reserved[40] = {};
  std::uint64_t header_checksum = 0;  // over the first 120 bytes
};
static_assert(sizeof(GcsrHeader) == 128, "frozen .gcsr header layout");

/// 40-byte on-disk section table entry.
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  // absolute byte offset, 64-byte aligned
  std::uint64_t length = 0;  // payload bytes (padding excluded)
  std::uint64_t checksum = 0;
  std::uint64_t unused = 0;  // written 0; earlier builds kept a Δ here
};
static_assert(sizeof(SectionEntry) == 40, "frozen .gcsr table layout");

[[noreturn]] void fail(BinfmtErrc code, const std::string& detail) {
  throw BinfmtError(code, detail);
}

constexpr std::uint64_t align_up(std::uint64_t off) {
  return (off + (kAlign - 1)) & ~static_cast<std::uint64_t>(kAlign - 1);
}

std::uint64_t fingerprint_of(std::uint64_t n, std::uint64_t arcs,
                             std::uint64_t ck_offsets,
                             std::uint64_t ck_targets,
                             std::uint64_t ck_weights) noexcept {
  const std::uint64_t words[5] = {n, arcs, ck_offsets, ck_targets, ck_weights};
  return gcsr_checksum(words, sizeof words);
}

// --- writer ----------------------------------------------------------------

/// Every byte leaving write_gcsr goes through here — the "io.write" fault
/// point turns errno faults into typed throws and short faults into a real
/// torn prefix in the temporary file, which write_gcsr then removes.
void write_all(std::ofstream& f, const std::string& path, const void* data,
               std::size_t len) {
  if (len == 0) return;  // empty sections; keeps fault hit counts meaningful
  const auto outcome = util::fault::check("io.write");
  if (outcome.fail) {
    fail(BinfmtErrc::kIoError,
         path + ": write failed: " + std::strerror(errno));
  }
  if (outcome.short_io) {
    f.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len / 2));
    f.flush();
    fail(BinfmtErrc::kIoError, path + ": short write (torn file)");
  }
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  if (!f) {
    fail(BinfmtErrc::kIoError,
         path + ": write failed: " + std::strerror(errno));
  }
}

void write_padding(std::ofstream& f, const std::string& path,
                   std::uint64_t from, std::uint64_t to) {
  static constexpr char kZeros[kAlign] = {};
  while (from < to) {
    const auto chunk = std::min<std::uint64_t>(to - from, sizeof kZeros);
    write_all(f, path, kZeros, chunk);
    from += chunk;
  }
}

}  // namespace

const char* to_string(BinfmtErrc code) noexcept {
  switch (code) {
    case BinfmtErrc::kIoError: return "io_error";
    case BinfmtErrc::kBadMagic: return "bad_magic";
    case BinfmtErrc::kBadVersion: return "bad_version";
    case BinfmtErrc::kBadHeader: return "bad_header";
    case BinfmtErrc::kTruncated: return "truncated";
    case BinfmtErrc::kMisalignedSection: return "misaligned_section";
    case BinfmtErrc::kBadSection: return "bad_section";
    case BinfmtErrc::kChecksumMismatch: return "checksum_mismatch";
    case BinfmtErrc::kBadWeightKind: return "bad_weight_kind";
  }
  return "?";
}

BinfmtError::BinfmtError(BinfmtErrc code, const std::string& detail)
    : std::runtime_error("gdiam::io: gcsr " + std::string(to_string(code)) +
                         ": " + detail),
      code_(code) {}

std::uint64_t gcsr_checksum(const void* data, std::size_t len) noexcept {
  // FNV-1a 64 folded over 8-byte words (tail bytes one at a time): the
  // byte-serial variant caps verification at a few hundred MB/s, a large
  // share of a checksum-verified open_mmap.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 0x100000001b3ull;
  }
  for (; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void write_gcsr(const Graph& g, const std::string& path) {
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t arcs = g.num_directed_edges();

  struct Payload {
    std::uint32_t kind;
    const void* data;
    std::uint64_t length;
  };
  const Payload payloads[kGraphSections] = {
      {kSecOffsets, g.offsets().data(), g.offsets().size_bytes()},
      {kSecTargets, g.targets().data(), g.targets().size_bytes()},
      {kSecWeights, g.edge_weights().data(), g.edge_weights().size_bytes()},
  };

  SectionEntry table[kGraphSections];
  std::uint64_t off = sizeof(GcsrHeader);
  for (std::uint32_t i = 0; i < kGraphSections; ++i) {
    const Payload& p = payloads[i];
    off = align_up(off);
    table[i] = {p.kind, 0, off, p.length, gcsr_checksum(p.data, p.length), 0};
    off += p.length;
  }
  const std::uint64_t table_off = align_up(off);

  GcsrHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kGcsrVersion;
  header.num_nodes = n;
  header.num_arcs = arcs;
  header.weight_kind = kWeightKindF64;
  header.section_count = kGraphSections;
  header.section_table_off = table_off;
  header.min_weight = g.min_weight();
  header.max_weight = g.max_weight();
  header.avg_weight = g.avg_weight();
  header.fingerprint = fingerprint_of(n, arcs, table[0].checksum,
                                      table[1].checksum, table[2].checksum);
  header.header_checksum =
      gcsr_checksum(&header, sizeof header - sizeof header.header_checksum);

  // The bytes go to a sibling temporary file that is renamed over `path`
  // only once complete. A failed write leaves `path` as it was, and `g` may
  // be a mapping of `path` itself: the old inode stays valid until unmapped.
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(serial.fetch_add(1));
  try {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      fail(BinfmtErrc::kIoError, "cannot open '" + tmp + "' for writing");
    }
    write_all(f, path, &header, sizeof header);
    std::uint64_t cur = sizeof(GcsrHeader);
    for (std::uint32_t i = 0; i < kGraphSections; ++i) {
      write_padding(f, path, cur, table[i].offset);
      write_all(f, path, payloads[i].data, payloads[i].length);
      cur = table[i].offset + table[i].length;
    }
    write_padding(f, path, cur, table_off);
    write_all(f, path, table, sizeof table);
    const std::uint64_t table_ck = gcsr_checksum(table, sizeof table);
    write_all(f, path, &table_ck, sizeof table_ck);
    f.close();
    if (f.fail()) {
      fail(BinfmtErrc::kIoError, path + ": close failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      fail(BinfmtErrc::kIoError,
           path + ": rename failed: " + std::strerror(errno));
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

// --- reader ----------------------------------------------------------------

namespace {

/// One read-only mmap region. The Graph views of a mapped file hold it as
/// their backing keep-alive, so it is unmapped with the last of them.
class Mapping {
 public:
  Mapping(const std::byte* base, std::size_t size) : base_(base), size_(size) {}
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { ::munmap(const_cast<std::byte*>(base_), size_); }

  [[nodiscard]] const std::byte* at(std::uint64_t off) const noexcept {
    return base_ + off;
  }

 private:
  const std::byte* base_;
  std::size_t size_;
};

template <typename T>
std::span<const T> section_span(const Mapping& f, const SectionEntry& e) {
  return {reinterpret_cast<const T*>(f.at(e.offset)),
          static_cast<std::size_t>(e.length / sizeof(T))};
}

}  // namespace

MappedGraph open_mmap(const std::string& path, const GcsrOpenOptions& opts) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail(BinfmtErrc::kIoError,
         "cannot open '" + path + "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(BinfmtErrc::kIoError, path + ": fstat: " + std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(GcsrHeader)) {
    ::close(fd);
    fail(BinfmtErrc::kTruncated, path + ": shorter than the 128-byte header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (map == MAP_FAILED) {
    fail(BinfmtErrc::kIoError, path + ": mmap: " + std::strerror(errno));
  }
  const auto file =
      std::make_shared<const Mapping>(static_cast<const std::byte*>(map), size);

  GcsrHeader h;
  std::memcpy(&h, file->at(0), sizeof h);
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    fail(BinfmtErrc::kBadMagic, path + ": not a .gcsr file");
  }
  if (h.version != kGcsrVersion) {
    fail(BinfmtErrc::kBadVersion,
         path + ": format version " + std::to_string(h.version) +
             " (this build reads version " + std::to_string(kGcsrVersion) +
             ")");
  }
  if (gcsr_checksum(&h, sizeof h - sizeof h.header_checksum) !=
      h.header_checksum) {
    fail(BinfmtErrc::kBadHeader, path + ": header checksum mismatch");
  }
  if (h.weight_kind != kWeightKindF64) {
    fail(BinfmtErrc::kBadWeightKind,
         path + ": weight kind " + std::to_string(h.weight_kind));
  }
  if (h.num_nodes > std::uint64_t{kInvalidNode} - 1) {
    fail(BinfmtErrc::kBadHeader, path + ": node count exceeds NodeId range");
  }
  if (h.section_count < kGraphSections) {
    fail(BinfmtErrc::kBadHeader, path + ": fewer than 3 sections");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (h.section_table_off < sizeof(GcsrHeader) ||
      h.section_table_off > size ||
      table_bytes + sizeof(std::uint64_t) > size - h.section_table_off) {
    fail(BinfmtErrc::kTruncated,
         path + ": section table extends past end of file");
  }
  std::uint64_t table_ck = 0;
  std::memcpy(&table_ck, file->at(h.section_table_off + table_bytes),
              sizeof table_ck);
  if (gcsr_checksum(file->at(h.section_table_off), table_bytes) != table_ck) {
    fail(BinfmtErrc::kChecksumMismatch,
         path + ": section table checksum mismatch");
  }

  // Structural validation of the graph sections, which lead the table in
  // CSR order. Entries after them (the presplit layouts earlier builds
  // persisted) are covered by the table checksum and otherwise ignored.
  const std::uint64_t n = h.num_nodes;
  const std::uint64_t arcs = h.num_arcs;
  const std::uint32_t kinds[kGraphSections] = {kSecOffsets, kSecTargets,
                                               kSecWeights};
  const std::uint64_t lengths[kGraphSections] = {
      (n + 1) * sizeof(EdgeIndex), arcs * sizeof(NodeId),
      arcs * sizeof(Weight)};
  SectionEntry sections[kGraphSections];
  std::memcpy(sections, file->at(h.section_table_off), sizeof sections);
  for (std::uint32_t i = 0; i < kGraphSections; ++i) {
    const SectionEntry& e = sections[i];
    if (e.offset % kAlign != 0) {
      fail(BinfmtErrc::kMisalignedSection,
           path + ": section " + std::to_string(i) + " at offset " +
               std::to_string(e.offset) + " is not 64-byte aligned");
    }
    if (e.offset < sizeof(GcsrHeader) || e.offset > size ||
        e.length > h.section_table_off ||
        e.offset + e.length > h.section_table_off) {
      fail(BinfmtErrc::kTruncated,
           path + ": section " + std::to_string(i) + " out of bounds");
    }
    if (e.kind != kinds[i]) {
      fail(BinfmtErrc::kBadSection,
           path + ": graph sections must lead the file in CSR order");
    }
    if (e.length != lengths[i]) {
      fail(BinfmtErrc::kBadSection,
           path + ": section " + std::to_string(i) + " (kind " +
               std::to_string(e.kind) + ") has the wrong length");
    }
    if (opts.verify_checksums &&
        gcsr_checksum(file->at(e.offset), e.length) != e.checksum) {
      fail(BinfmtErrc::kChecksumMismatch,
           path + ": section " + std::to_string(i) + " (kind " +
               std::to_string(e.kind) + ") checksum mismatch");
    }
  }
  if (fingerprint_of(n, arcs, sections[0].checksum, sections[1].checksum,
                     sections[2].checksum) != h.fingerprint) {
    fail(BinfmtErrc::kBadHeader, path + ": graph fingerprint mismatch");
  }

  const auto offsets = section_span<EdgeIndex>(*file, sections[0]);
  const auto targets = section_span<NodeId>(*file, sections[1]);
  const auto weights = section_span<Weight>(*file, sections[2]);
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != arcs) {
    fail(BinfmtErrc::kBadSection, path + ": offsets array inconsistent");
  }
  MappedGraph out;
  out.graph_ = Graph(offsets, targets, weights, file, h.min_weight,
                     h.max_weight, h.avg_weight);
  out.fingerprint_ = h.fingerprint;
  out.file_bytes_ = size;
  if (opts.verify_checksums && !out.graph_.validate()) {
    // Checksums match what the writer wrote, but the writer wrote a CSR
    // that violates the Graph invariants (unsorted offsets, out-of-range
    // targets, non-positive weights).
    fail(BinfmtErrc::kBadSection, path + ": mapped CSR fails validation");
  }
  return out;
}

}  // namespace gdiam::io
