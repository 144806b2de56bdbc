// Experiment for PR 8's shared search core: what the transposition
// table buys on the canonical corpus shapes, and where the exact-cover
// frontier sits once the memo is on.
//
// Two reports print before the google-benchmark timings:
//
//  * Memo table — the harder/hardest corpus jobs run memo-off and
//    memo-on through the worker pipeline.  Three properties are
//    *asserted*, not just reported: memo-on rows are identical across
//    repeated runs (determinism), identical whether the worker's
//    shared table or no table is handed in (purity — core::synthesize
//    clears a supplied table on entry and self-allocates otherwise),
//    and the job-scoped hit rate is what the table prints.  Rows that
//    differ between off and on are *expected* on this corpus: a
//    budget-truncated search keeps the incumbent its pruned traversal
//    reached, and memo pruning moves that frontier — deterministically,
//    because entries never outlive one job.
//
//  * Frontier table — per-job certified covering bounds
//    (cover_cubes/cover_gap from core::CoverBounds) under the default
//    exact-cover ceilings vs a raised-ceiling + 4x-budget run.  Charts
//    the default run could not prove either get proven by the headroom
//    run (gap closes to zero) or keep a *certified* nonzero gap — the
//    bound is sound either way, which is the point of reporting it.
//
// The google-benchmark timings then cover the per-node costs of the
// exact-cover B&B: `hash_words` on sparse, dense and scattered signature
// inputs, and one budget-truncated chart replayed at a fixed budget (its
// node count is asserted, so a timing never comes from a different tree).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "driver/batch.hpp"
#include "logic/cover_engine.hpp"
#include "logic/qm.hpp"
#include "oracles/charts.hpp"
#include "search/search.hpp"

namespace {

using seance::driver::BatchOptions;
using seance::driver::BatchRunner;
using seance::driver::JobResult;
using seance::driver::JobSpec;
using seance::search::TranspositionTable;

/// The corpus: a slice of the golden harder/hardest streams (same
/// shapes, same derive_seed stream, smaller counts so the report runs
/// in CI's bench-smoke budget).
std::vector<JobSpec> corpus() {
  BatchRunner runner;
  runner.add_harder_generated(6, 1);
  runner.add_hardest_generated(4, 1);
  return runner.jobs();
}

struct SweepResult {
  std::vector<JobResult> rows;
  seance::search::TtStats stats;
  double wall_ms = 0;
};

/// Runs the corpus through the full job pipeline (verify + ternary),
/// the way BatchRunner workers do.  `memo_on` toggles options.tt;
/// `shared` hands the worker's table in (synthesize clears it per job).
SweepResult run_corpus(const std::vector<JobSpec>& jobs, bool memo_on,
                       TranspositionTable* shared) {
  BatchOptions options;
  SweepResult out;
  const auto start = std::chrono::steady_clock::now();
  for (JobSpec job : jobs) {
    job.options.tt = memo_on;
    out.rows.push_back(BatchRunner::run_job(job, options, nullptr, shared));
  }
  if (shared != nullptr) out.stats = shared->stats();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

void require_identical_rows(const std::vector<JobResult>& a,
                            const std::vector<JobResult>& b,
                            const char* what) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (seance::driver::to_csv_row(a[i]) !=
        seance::driver::to_csv_row(b[i])) {
      std::fprintf(stderr, "FATAL: %s differ (job %s)\n", what,
                   a[i].name.c_str());
      std::abort();
    }
  }
}

double hit_rate(const seance::search::TtStats& s) {
  const double probes = static_cast<double>(s.hits + s.misses);
  return probes > 0 ? 100.0 * static_cast<double>(s.hits) / probes : 0.0;
}

void print_memo_sweep() {
  const std::vector<JobSpec> jobs = corpus();
  const SweepResult off = run_corpus(jobs, false, nullptr);

  TranspositionTable shared(jobs.front().options.tt_mb << 20);
  const SweepResult on = run_corpus(jobs, true, &shared);
  const SweepResult on_again = run_corpus(jobs, true, &shared);
  require_identical_rows(on.rows, on_again.rows, "repeated memo-on rows");
  const SweepResult on_local = run_corpus(jobs, true, nullptr);
  require_identical_rows(on.rows, on_local.rows,
                         "shared-table vs self-allocated memo rows");

  int moved = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (seance::driver::to_csv_row(off.rows[i]) !=
        seance::driver::to_csv_row(on.rows[i])) {
      ++moved;
    }
  }

  std::printf(
      "\n=== Transposition-table memo (%zu harder/hardest jobs) ===\n",
      jobs.size());
  std::printf("%-10s | %10s | %10s | %8s | %9s | %8s\n", "policy", "probes",
              "hits", "hit-rate", "evictions", "wall ms");
  std::printf(
      "-----------+------------+------------+----------+-----------+---------\n");
  const struct {
    const char* label;
    const SweepResult* r;
  } table[] = {{"off", &off}, {"on", &on}};
  for (const auto& row : table) {
    const auto& s = row.r->stats;
    std::printf("%-10s | %10llu | %10llu | %7.1f%% | %9llu | %8.0f\n",
                row.label,
                static_cast<unsigned long long>(s.hits + s.misses),
                static_cast<unsigned long long>(s.hits), hit_rate(s),
                static_cast<unsigned long long>(s.evictions),
                row.r->wall_ms);
  }
  std::printf(
      "asserted: memo-on rows repeat byte-identically and do not depend on\n"
      "whose table is handed in (entries are job-scoped).  %d/%zu rows\n"
      "differ between off and on — budget-truncated searches where memo\n"
      "pruning moved the frontier, which is why tt is part of the options\n"
      "identity string.\n",
      moved, jobs.size());
}

/// The kExactCellLimit re-tuning experiment (the pre-memo sweep that
/// set 512k lives in bench_primes --sweep-limits): each configuration
/// raises one ceiling at a time so the table shows what the memo, the
/// cell ceiling, and the node budget each contribute.
void print_frontier_sweep() {
  const std::vector<JobSpec> jobs = corpus();
  const struct {
    const char* label;
    std::size_t cells;
    std::size_t nodes;
    std::size_t tt_mb;
  } configs[] = {
      {"default", seance::logic::kExactCellLimit,
       seance::logic::kDefaultExactNodeBudget, 16},
      {"cells x4", seance::logic::kExactCellLimit * 4,
       seance::logic::kDefaultExactNodeBudget, 16},
      {"cells+nodes x4", seance::logic::kExactCellLimit * 4,
       seance::logic::kDefaultExactNodeBudget * 4, 64},
  };
  constexpr std::size_t kConfigs = std::size(configs);

  std::vector<std::vector<JobResult>> rows(kConfigs);
  std::vector<double> wall(kConfigs, 0);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    TranspositionTable tt(configs[c].tt_mb << 20);
    const auto start = std::chrono::steady_clock::now();
    for (JobSpec job : jobs) {
      job.options.cover_cell_limit = configs[c].cells;
      job.options.cover_node_budget = configs[c].nodes;
      job.options.tt_mb = configs[c].tt_mb;
      rows[c].push_back(BatchRunner::run_job(job, BatchOptions{}, nullptr, &tt));
    }
    wall[c] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }

  std::printf("\n=== Exact-cover frontier: ceiling sweep (cubes/gap per "
              "job) ===\n");
  std::printf("%-18s", "job");
  for (const auto& cfg : configs) std::printf(" | %14s", cfg.label);
  std::printf(" | verdict\n");
  std::printf("%-18s", "");
  for (std::size_t c = 0; c < kConfigs; ++c) std::printf(" | %7s %6s", "cubes", "gap");
  std::printf(" |\n");
  int newly_proven = 0;
  int certified_gaps = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& b = rows[0][i];
    const JobResult& best = rows[kConfigs - 1][i];
    const char* verdict = "proven both ways";
    if (b.cover_gap > 0 && best.cover_gap == 0) {
      verdict = "NEWLY PROVEN";
      ++newly_proven;
    } else if (best.cover_gap > 0) {
      verdict = "certified gap";
      ++certified_gaps;
    }
    std::printf("%-18s", b.name.c_str());
    for (std::size_t c = 0; c < kConfigs; ++c) {
      std::printf(" | %7d %6d", rows[c][i].cover_cubes, rows[c][i].cover_gap);
    }
    std::printf(" | %s\n", verdict);
  }
  std::printf("%-18s", "wall ms");
  for (std::size_t c = 0; c < kConfigs; ++c) std::printf(" | %14.0f", wall[c]);
  std::printf(" |\n");
  std::printf("(%d chart(s) newly proven vs default, %d job(s) with a "
              "certified nonzero gap;\n gaps are sums of per-chart "
              "cubes-minus-lower-bound, so 0 == every cover proven "
              "minimum)\n\n",
              newly_proven, certified_gaps);
}

void BM_HarderJobMemoOff(benchmark::State& state) {
  BatchRunner runner;
  runner.add_harder_generated(1, 1);
  JobSpec job = runner.jobs().front();
  job.options.tt = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchRunner::run_job(job, BatchOptions{}));
  }
}
BENCHMARK(BM_HarderJobMemoOff)->Unit(benchmark::kMillisecond);

void BM_HarderJobMemoOn(benchmark::State& state) {
  BatchRunner runner;
  runner.add_harder_generated(1, 1);
  const JobSpec job = runner.jobs().front();
  TranspositionTable tt(job.options.tt_mb << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BatchRunner::run_job(job, BatchOptions{}, nullptr, &tt));
  }
}
BENCHMARK(BM_HarderJobMemoOn)->Unit(benchmark::kMillisecond);

enum class Words { kSparse, kDense, kScattered };

/// 256 signature inputs of 12 words (the hardest charts' `uncovered`
/// sets average about 11.4 words).  Sparse words are what deep nodes
/// hash: mostly zero words, the rest a few bits; dense words have no
/// zero byte; scattered words (`rng() & rng() & rng()`) have about five
/// nonzero bytes among zero ones, as half-covered dense rows would.
std::vector<std::uint64_t> signature_inputs(Words kind) {
  std::mt19937_64 rng(11 + static_cast<int>(kind));
  std::vector<std::uint64_t> words(256 * 12);
  for (std::uint64_t& w : words) {
    if (kind == Words::kDense) {
      w = rng() | 0x0101010101010101ull;
    } else if (kind == Words::kScattered) {
      w = rng() & rng() & rng();
    } else if (rng() % 4 == 0) {
      w = (std::uint64_t{1} << (rng() % 64)) | (std::uint64_t{1} << (rng() % 64));
    } else {
      w = 0;
    }
  }
  return words;
}

void hash_words_bench(benchmark::State& state, Words kind) {
  const std::vector<std::uint64_t> words = signature_inputs(kind);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::search::hash_words(words.data() + i * 12, 12));
    i = (i + 1) % 256;
  }
}

void BM_HashWordsSparse(benchmark::State& state) { hash_words_bench(state, Words::kSparse); }
BENCHMARK(BM_HashWordsSparse);

void BM_HashWordsDense(benchmark::State& state) { hash_words_bench(state, Words::kDense); }
BENCHMARK(BM_HashWordsDense);

void BM_HashWordsScattered(benchmark::State& state) {
  hash_words_bench(state, Words::kScattered);
}
BENCHMARK(BM_HashWordsScattered);

/// The seeded truncated chart of test_cover_engine at a 100k-node
/// budget with the pipeline's 16 MiB table, cleared per solve as
/// core::synthesize does per job.
void BM_CoverTruncatedChart(benchmark::State& state) {
  constexpr std::size_t kBudget = 100'000;
  const seance::logic::CoverTable chart = seance::logic::banded_chart();
  TranspositionTable tt(std::size_t{16} << 20);
  for (auto _ : state) {
    tt.clear();
    const seance::logic::MinCoverResult r =
        seance::logic::solve_min_cover(chart, kBudget, &tt);
    if (r.nodes != kBudget + 1 || r.exact) {
      std::fprintf(stderr, "FATAL: truncated chart took %zu nodes (exact %d)\n",
                   r.nodes, r.exact ? 1 : 0);
      std::abort();
    }
    benchmark::DoNotOptimize(r.columns.data());
  }
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(kBudget + 1), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CoverTruncatedChart)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_memo_sweep();
  print_frontier_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
