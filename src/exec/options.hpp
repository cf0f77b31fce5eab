#pragma once
// Shared execution knobs (DESIGN.md §8).
//
// Every round-based kernel in gdiam is steered by the same choices: how the
// frontier engine maintains the per-round active sets, how many BSP shards
// the kernel runs on, where their compute runs, and how shards are placed.
// Before the unified runtime these knobs were duplicated across
// DeltaSteppingOptions, ClusterOptions and the GrowingEngine setters, and
// could silently disagree between pipeline layers. ExecOptions is the single
// definition; kernel option structs inherit it, so one assignment configures
// a whole pipeline.

#include <cstdint>

#include "core/frontier.hpp"
#include "mr/partition.hpp"
#include "mr/transport.hpp"

namespace gdiam::exec {

/// The execution knobs shared by Δ-stepping, the Δ-growing policies, and the
/// CLUSTER / CLUSTER2 / CL-DIAM drivers. Kernel-specific option structs
/// (sssp::DeltaSteppingOptions, core::ClusterOptions) inherit these fields,
/// and exec::Context carries a copy as the pipeline-wide default.
struct ExecOptions {
  /// Thresholds of the adaptive sparse/dense frontier engine for the
  /// per-round active sets (core/frontier.hpp).
  core::FrontierOptions frontier;
  /// Shard layout for the partitioned BSP backends; num_partitions <= 1
  /// selects the flat shared-memory kernels.
  mr::PartitionOptions partition;
  /// Where the BSP compute phases run and how staged messages travel
  /// (mr/transport.hpp, DESIGN.md §9–§10): kLocal is the in-process default,
  /// and kPool runs them on `processes` resident forked workers with
  /// per-step inputs shipped over persistent sockets — bit-identical
  /// results, with RoundStats additionally reporting the genuinely-crossed
  /// wire bytes. Only the partitioned backends read it.
  mr::TransportOptions transport;
  /// NUMA-aware shard placement (mr/placement.hpp, DESIGN.md §13): which
  /// strategy maps shards onto the discovered topology (GDIAM_TOPOLOGY
  /// override honored). kNone — the default — is the pre-placement behavior
  /// verbatim. Placement moves memory and threads, never results: distances,
  /// labels and model counters are bit-identical across strategies. Only the
  /// partitioned BSP backends read it.
  mr::PlacementOptions placement;
};

}  // namespace gdiam::exec
