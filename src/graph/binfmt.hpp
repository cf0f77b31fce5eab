#pragma once
// The versioned on-disk binary CSR format (.gcsr) — DESIGN.md §14.
//
// A .gcsr file is the mmap-ready image of one gdiam::Graph:
//
//   [  0, 128)  GcsrHeader: magic "gdiamCSR", format version, flags, n,
//               arc count, weight kind, persisted weight stats (so opening
//               never scans the weights section), graph fingerprint, and a
//               checksum over the header bytes themselves.
//   [128, ...)  the three section payloads, each padded to a 64-byte
//               boundary so the mapped pointers are aligned for every
//               element type (and for cache-line-clean kernel scans):
//                 offsets  (n+1) × u64
//                 targets   2m  × u32
//                 weights   2m  × f64
//   [table]     SectionEntry[section_count]: kind, byte offset/length and an
//               FNV-1a checksum of the payload; followed by a u64 checksum
//               of the table bytes.
//
// All integers are little-endian host-width PODs — the format is an image
// of the in-memory layout, not an interchange format (use DIMACS / edge
// lists to talk to other tools). open_mmap() maps the file, validates
// magic, version, header and table checksums, section alignment and bounds
// — and, by default, every section payload checksum — and hands out a
// zero-copy Graph whose spans point straight into the mapping. Every
// failure throws BinfmtError with a typed code; a corrupt or torn file can
// never produce a Graph.
//
// Files written by earlier builds may carry further table entries after the
// three graph sections (persisted Δ-presplit layouts, since removed). The
// table checksum covers them; the reader ignores them otherwise, so such a
// file opens as the same graph with the same fingerprint.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace gdiam::io {

/// Current .gcsr format version. Readers reject files with any other value
/// (the header layout itself is frozen across versions).
inline constexpr std::uint32_t kGcsrVersion = 1;

/// Why a .gcsr read or write failed.
enum class BinfmtErrc {
  kIoError,           // open/map/write syscall failed (errno-level)
  kBadMagic,          // not a .gcsr file
  kBadVersion,        // future (or unknown) format version
  kBadHeader,         // header checksum mismatch or inconsistent fields
  kTruncated,         // file shorter than its own header/table claims
  kMisalignedSection, // section payload not 64-byte aligned
  kBadSection,        // section table inconsistent (kind/bounds/shape)
  kChecksumMismatch,  // a payload or table checksum does not match
  kBadWeightKind,     // weight encoding this build does not understand
};

[[nodiscard]] const char* to_string(BinfmtErrc code) noexcept;

/// Every binfmt failure carries a typed code; what() includes the path.
class BinfmtError : public std::runtime_error {
 public:
  BinfmtError(BinfmtErrc code, const std::string& detail);
  [[nodiscard]] BinfmtErrc code() const noexcept { return code_; }

 private:
  BinfmtErrc code_;
};

/// FNV-1a 64 folded over 8-byte words (tail bytes individually) — the
/// checksum every section, the header and the section table carry. Exposed
/// so tests and tooling can re-stamp deliberately corrupted fixtures.
[[nodiscard]] std::uint64_t gcsr_checksum(const void* data,
                                          std::size_t len) noexcept;

/// Writes `g` as a .gcsr file at `path`: into a sibling temporary file that
/// is renamed over `path` once complete, so `g` may be a graph mapped from
/// `path` itself. Throws BinfmtError{kIoError} on any write failure (fault
/// point "io.write": errno and short-write faults fail the write with the
/// typed error); the temporary file is removed and `path` is left as it was.
void write_gcsr(const Graph& g, const std::string& path);

struct GcsrOpenOptions {
  /// Verify every section payload checksum at open (one sequential read of
  /// the file). Disable only for huge trusted files where first-touch
  /// laziness matters more than early corruption detection; header, table
  /// and structural validation always run.
  bool verify_checksums = true;
};

/// A mapped .gcsr file: the zero-copy Graph view plus the file's identity.
/// Copies share the mapping; it lives until the last copy of this object
/// *and* of graph() dies.
class MappedGraph {
 public:
  MappedGraph() = default;

  /// The zero-copy graph view. Copying the returned Graph is cheap and
  /// keeps the mapping alive through its backing keep-alive.
  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

  /// The header's graph fingerprint: a pure function of (n, arcs, offsets/
  /// targets/weights checksums). Two files of the same graph agree on it.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  [[nodiscard]] std::size_t file_bytes() const noexcept { return file_bytes_; }

 private:
  friend MappedGraph open_mmap(const std::string&, const GcsrOpenOptions&);
  Graph graph_;
  std::uint64_t fingerprint_ = 0;
  std::size_t file_bytes_ = 0;
};

/// Maps `path` and validates it (see class comment). Throws BinfmtError.
[[nodiscard]] MappedGraph open_mmap(const std::string& path,
                                    const GcsrOpenOptions& opts = {});

}  // namespace gdiam::io
