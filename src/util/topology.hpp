#pragma once
// Machine topology discovery for NUMA-aware shard placement (DESIGN.md §13).
//
// The Δ-stepping hot loops are memory-bandwidth-bound: on a multi-socket
// machine a shard whose arrays were first-touched on the wrong node pays
// remote-DRAM latency on every relaxation. The placement layer
// (mr/placement.hpp) maps shards onto NUMA nodes; this file answers the one
// question it needs — *what nodes and CPUs exist* — and provides the two
// mechanisms placement is made real with: binding the calling thread to a
// node's CPUs (so OpenMP shard teams and forked workers run where their
// shard lives) and first-touch allocation (pages land on the node of the
// thread that first writes them — the portable placement mechanism; no
// libnuma/mbind dependency).
//
// Discovery order:
//   1. GDIAM_TOPOLOGY env var — an explicit spec, for deterministic tests on
//      single-node CI and for operators overriding a misdetected machine.
//      Grammar: per-node CPU lists separated by ';', each list in the
//      kernel's cpulist format (comma-separated ids and inclusive ranges):
//          "0-3;4-7"        two nodes, four CPUs each
//          "0,2,4-6;1,3,7"  interleaved ids are fine
//      A malformed spec throws std::invalid_argument (never a silent
//      fallback: a typo'd override must not quietly serve the wrong plan).
//      CPUs that don't exist on the actual machine are permitted — the spec
//      emulates a topology; binding simply degrades to a no-op for them.
//   2. /sys/devices/system/node/node*/cpulist — the real machine.
//   3. Single node holding every online CPU (non-Linux, masked-out sysfs).
//
// Binding is *best-effort by design*: the requested CPU set is intersected
// with the thread's currently-allowed set, and an empty intersection (or a
// failed syscall) leaves affinity untouched. Placement therefore never makes
// a run fail — and, because results are bit-identical regardless of where
// compute runs (the determinism contract), a skipped bind costs only the
// locality, never the answer.

#include <cstdint>
#include <string>
#include <vector>

namespace gdiam::util::topo {

/// One machine (real or emulated): which CPUs live on which NUMA node.
/// Immutable after construction; node ids are dense [0, num_nodes()).
struct Topology {
  std::vector<std::vector<int>> cpus_of_node;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(cpus_of_node.size());
  }
  [[nodiscard]] bool single_node() const noexcept {
    return cpus_of_node.size() <= 1;
  }
  [[nodiscard]] std::size_t total_cpus() const noexcept {
    std::size_t n = 0;
    for (const auto& c : cpus_of_node) n += c.size();
    return n;
  }
  [[nodiscard]] const std::vector<int>& cpus(std::uint32_t node) const {
    return cpus_of_node[node];
  }

  /// Structural hash: a pure function of (node count, per-node CPU lists).
  /// Feeds placement-plan fingerprints and the exec::Context cache keys, so
  /// two runs under different GDIAM_TOPOLOGY specs can never share arrays
  /// first-touched for the other's layout.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Parses a GDIAM_TOPOLOGY spec (see the header comment for the grammar).
/// Throws std::invalid_argument on malformed input: empty spec, empty node,
/// non-numeric ids, inverted ranges, or a CPU listed twice (within or across
/// nodes — real topologies never share CPUs, and rejecting duplicates keeps
/// capacity-balanced placement well-defined).
[[nodiscard]] Topology parse_spec(const std::string& spec);

/// The real machine, from /sys/devices/system/node (cached after the first
/// scan — the files are immutable for the process lifetime). Falls back to
/// one node holding every online CPU when sysfs is absent.
[[nodiscard]] const Topology& system_topology();

/// What placement sees: parse_spec(GDIAM_TOPOLOGY) when the env var is set
/// (re-read every call, so tests can switch emulated machines), else
/// system_topology(). This is the single discovery entry point — everything
/// placement-related derives from its result, which is what makes a plan a
/// pure function of (topology, K, strategy).
[[nodiscard]] Topology discover();

/// Binds the calling thread to `cpus` ∩ currently-allowed CPUs. Returns true
/// when affinity actually changed; false when the intersection was empty
/// (emulated CPUs, cgroup masks) or the syscall failed — in both cases
/// affinity is left untouched. Never throws: see the best-effort contract.
bool bind_current_thread(const std::vector<int>& cpus) noexcept;

/// RAII bind-and-restore for the calling thread: captures the current
/// affinity mask, applies bind_current_thread(cpus), restores the captured
/// mask on destruction. Used to pin one shard's compute (or one layout
/// build) to the shard's node without perturbing the OpenMP team for
/// whatever runs next. bound() reports whether the bind took effect.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus) noexcept;
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  [[nodiscard]] bool bound() const noexcept { return bound_; }

 private:
  // Opaque saved cpu_set_t (cpu_set_t is a <sched.h> type; keeping it out of
  // the header keeps topology.hpp includable everywhere).
  alignas(8) unsigned char saved_[128];
  bool bound_ = false;
};

/// Touches one byte per page of [p, p+len) so the pages are faulted in — and
/// therefore node-placed — by the *calling* thread. Call under a
/// ScopedAffinity bind right after allocating shard-local storage to make
/// first-touch placement explicit rather than incidental.
void first_touch(void* p, std::size_t len) noexcept;

}  // namespace gdiam::util::topo
