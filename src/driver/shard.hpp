// Deterministic corpus sharding.
//
// Scaling the batch driver past one process means splitting a corpus of
// JobSpecs into K slices, running each slice in its own worker process
// (crash isolation: a rogue job kills only its shard), and stitching the
// per-shard reports back together (store::merge).  The split itself must
// be a pure function of (job count, K) — the orchestrator and every
// re-exec'd worker compute the plan independently and must agree on it,
// and `--resume` must map a stale shard file back to the same slice.
//
// The plan is round-robin — job i lands in slice i % K — and that is the
// worker-protocol contract: it needs no per-job information, so a worker
// can recover its slice from the corpus recipe alone.  The merge
// reassembles jobs by name into the original submission order.

#pragma once

#include <string>
#include <vector>

#include "driver/batch.hpp"

namespace seance::driver {

struct ShardPlan {
  int num_shards = 1;
  /// slices[s] holds the corpus indices of shard s, ascending (i.e. in
  /// submission order).  Every corpus index appears in exactly one
  /// slice; slices may be empty when K exceeds the corpus.
  std::vector<std::vector<int>> slices;

  /// Job i -> slice i % K.  Throws std::invalid_argument for
  /// num_shards < 1 or job_count < 0.
  [[nodiscard]] static ShardPlan round_robin(int job_count, int num_shards);

  // ---- Steal-safe slice naming (the fleet/lease currency) ----------------
  //
  // A slice's identity must survive being run by *any* process on *any*
  // machine: the `# shard:` store tag, the lease file, and the per-slice
  // store file all derive from (index, total) alone — never from the
  // runner that happens to execute the slice — so a stolen or re-leased
  // slice merges under exactly the same identity rules as one run by its
  // original owner.

  /// Canonical slice identity "u/U" — the `# shard:` tag a slice store
  /// carries regardless of which runner produced it.
  [[nodiscard]] static std::string slice_tag(int index, int total);
  /// Canonical per-slice store file name "shard-u-of-U.csv".  Embeds the
  /// lease-unit total, so re-granulated runs never alias stale files.
  [[nodiscard]] static std::string slice_file(int index, int total);
  /// Inverse of slice_tag; false on malformed or out-of-range input
  /// (index must satisfy 0 <= index < total, total >= 1).
  [[nodiscard]] static bool parse_slice_tag(const std::string& tag, int* index,
                                            int* total);

  /// The lease-unit granularity knob: how many round-robin slices the
  /// corpus is cut into, independent of how many runners or worker
  /// processes consume them.  `requested` wins when positive; otherwise
  /// `fallback` (a backend-appropriate default — K for local sharded
  /// runs, a multiple of the expected runner count for fleets).  The
  /// result is clamped to [1, max(1, job_count)] so no unit is ever
  /// empty — every lease names real work.
  [[nodiscard]] static int lease_units(int job_count, int requested,
                                       int fallback);
};

/// A coarse per-job cost estimate (the fleet's longest-first ordering
/// key): the flow chart area (states × input columns) that every
/// pipeline stage walks.  Integer-derived, so identical across platforms.
[[nodiscard]] double estimate_cost(const JobSpec& spec);

}  // namespace seance::driver
