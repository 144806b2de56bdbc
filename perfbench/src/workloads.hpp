// The benchmark's workloads: which tables each one sends, made from the
// seed argument alone.  The program under test only ever sees the
// generated job specs.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/batch.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kHarderBatch, kHardestBatch };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] std::optional<Workload> workload_from_string(std::string_view s);

/// Both workloads run tables of the golden corpus stream (base seed 1),
/// whatever the seed argument, which only permutes their order: seeded
/// 12x5 and 20x6 tables range from milliseconds to minutes per job, and
/// the smaller shapes are dominated by a memory-bound TT clear whose cost
/// moves with other tenants' memory traffic on a shared host (README.md).
inline constexpr std::uint64_t kGoldenBaseSeed = 1;
/// harder-batch: every kHarderShape (12x5) table of the golden corpus.
inline constexpr int kHarderJobs = 25;
/// hardest-batch: the first kHardestShape (20x6) tables of the golden corpus.
inline constexpr int kHardestJobs = 8;
/// The walk probe every run synthesizes and walks outside the timed
/// window: Table-1 plus the golden corpus's generated 6x3 tables, which
/// hold the known walk failures.
inline constexpr int kProbeRandom = 200;
/// The api layer stream of the traced run: distinct kHardShape tables
/// beside Table-1, and how often each table is sent.
inline constexpr int kServeTables = 600;
inline constexpr int kServeRepeats = 4;

struct JobList {
  /// Distinct jobs, in batch run order.
  std::vector<seance::driver::JobSpec> jobs;
  /// Serve stream only: the request stream as indices into `jobs`.
  std::vector<int> stream;
  /// Jobs whose rows are pinned in the golden corpus (their names there
  /// match), independent of the seed.
  std::vector<bool> pinned;
};

/// The workload's inputs for `seed`; the same seed gives the same list.
[[nodiscard]] JobList make_jobs(Workload w, std::uint64_t seed);

/// The walk probe (Table-1 and gen-6x3-0000..0199), every job pinned.
[[nodiscard]] JobList make_walk_probe();

/// The traced run's serve stream: Table-1 (pinned) and kServeTables
/// kHardShape tables from a base seed derived from `seed`, never the golden
/// stream; each table is sent kServeRepeats times in a seeded order.
[[nodiscard]] JobList make_serve_stream(std::uint64_t seed);

/// Canonical bytes of a job list (names, KISS2 tables, option spellings,
/// stream order), for determinism checks.
[[nodiscard]] std::string job_list_bytes(const JobList& list);

/// One serve-protocol request for `spec`, with canonical KISS2 bytes so
/// its cache key equals api::cache_key of the parsed table.
[[nodiscard]] std::string request_text(const seance::driver::JobSpec& spec);

}  // namespace perfbench
