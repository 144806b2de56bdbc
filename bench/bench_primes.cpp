// Word-parallel prime-implicant engine benchmarks.
//
// Before/after tables against the retained hash-map prime generator
// (reference_compute_primes) on the two density regimes that matter:
// fsv-cover-shaped random functions (the all-primes mode every fsv
// synthesis hits) and the >90%-DC Y-equation shape of deep machines
// (the sharp path's regime).  `--sweep-limits` reruns the exact-cover
// tuning experiment behind kExactCellLimit / kDefaultExactNodeBudget on
// the real pipeline: the harder 12-state / 5-input corpus synthesized
// at several branch-and-bound budgets.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string_view>
#include <vector>

#include "bench_suite/generator.hpp"
#include "core/synthesize.hpp"
#include "driver/batch.hpp"
#include "logic/prime_engine.hpp"
#include "logic/qm.hpp"
#include "oracles/qm_reference.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Func {
  std::vector<seance::logic::Minterm> on;
  std::vector<seance::logic::Minterm> dc;
};

Func random_function(int num_vars, double p_on, double p_dc, std::uint64_t seed) {
  Func f;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (seance::logic::Minterm m = 0; m < (1u << num_vars); ++m) {
    const double r = dist(rng);
    if (r < p_on) {
      f.on.push_back(m);
    } else if (r < p_on + p_dc) {
      f.dc.push_back(m);
    }
  }
  return f;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void print_compare_row(int vars, double p_on, double p_dc, std::uint64_t seed) {
  const auto f = random_function(vars, p_on, p_dc, seed);
  const auto t0 = Clock::now();
  const auto reference = seance::logic::reference_compute_primes(vars, f.on, f.dc);
  const auto t1 = Clock::now();
  const auto engine = seance::logic::prime_engine::compute_primes(vars, f.on, f.dc);
  const auto t2 = Clock::now();
  const double ref_ms = ms_between(t0, t1);
  const double new_ms = ms_between(t1, t2);
  std::printf("%6d | %8zu | %12.3f | %12.3f | %8.1fx | %s\n", vars,
              engine.size(), ref_ms, new_ms,
              new_ms > 0 ? ref_ms / new_ms : 0.0,
              engine.size() == reference.size() ? "match" : "MISMATCH");
}

void print_table() {
  std::printf("\n=== prime generation before/after (hash-map reference vs "
              "word-parallel engine) ===\n");
  std::printf("fsv-cover shape: 30%% ON / 20%% DC (all-primes mode workload)\n");
  std::printf("%6s | %8s | %12s | %12s | %9s |\n", "vars", "primes",
              "reference ms", "engine ms", "speedup");
  std::printf("-------+----------+--------------+--------------+-----------+------\n");
  for (int vars = 4; vars <= 12; ++vars) print_compare_row(vars, 0.3, 0.2, 97);

  std::printf("\nY-equation shape: 5%% ON / 92%% DC (deep-machine equations, "
              "sharp path)\n");
  std::printf("%6s | %8s | %12s | %12s | %9s |\n", "vars", "primes",
              "reference ms", "engine ms", "speedup");
  std::printf("-------+----------+--------------+--------------+-----------+------\n");
  for (int vars = 8; vars <= 13; ++vars) print_compare_row(vars, 0.05, 0.92, 97);
  std::printf("\n");
}

// The tuning experiment behind the current kExactCellLimit /
// kDefaultExactNodeBudget (see logic/qm.hpp): the harder corpus
// synthesized end to end at several exact-cover node budgets.  Budget 1
// means every non-forced chart goes to the lazy-greedy completion.
void print_limit_sweep() {
  std::printf("=== exact-cover budget sweep on the harder corpus "
              "(12 states / 5 inputs, 8 jobs) ===\n");
  std::printf("%12s | %10s | %11s\n", "node budget", "wall ms", "total gates");
  std::printf("-------------+------------+------------\n");
  std::vector<seance::flowtable::FlowTable> tables;
  for (int i = 0; i < 8; ++i) {
    seance::bench_suite::GeneratorOptions gen = seance::driver::kHarderShape;
    gen.seed = seance::driver::derive_seed(1, static_cast<std::uint64_t>(i));
    tables.push_back(seance::bench_suite::generate(gen));
  }
  for (const std::size_t budget :
       {std::size_t{1}, std::size_t{500'000}, std::size_t{2'000'000},
        std::size_t{8'000'000}}) {
    seance::core::SynthesisOptions options;
    options.cover_node_budget = budget;
    const auto t0 = Clock::now();
    int gates = 0;
    for (const auto& table : tables) {
      gates += seance::core::synthesize(table, options).gate_count();
    }
    const auto t1 = Clock::now();
    std::printf("%12zu | %10.1f | %11d\n", budget, ms_between(t0, t1), gates);
  }
  std::printf("(kExactCellLimit keeps million-cell charts out of the "
              "branch-and-bound entirely:\n no harder chart above ~400k "
              "cells ever reached a proof, even at 100M nodes.)\n\n");
}

void BM_PrimeEngineFsvShape(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::logic::prime_engine::compute_primes(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_PrimeEngineFsvShape)->DenseRange(4, 12)->Unit(benchmark::kMicrosecond);

void BM_PrimeReferenceFsvShape(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::logic::reference_compute_primes(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_PrimeReferenceFsvShape)->DenseRange(4, 12)->Unit(benchmark::kMicrosecond);

void BM_PrimeEngineDenseDc(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto f = random_function(vars, 0.05, 0.92, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::logic::prime_engine::compute_primes(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_PrimeEngineDenseDc)->DenseRange(8, 15)->Unit(benchmark::kMicrosecond);

// Primes plus the packed incidence bitmatrix — the exact call
// select_cover makes, so this is the per-equation cost of the QM front
// half in the pipeline.
void BM_PrimeIncidence(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto f = random_function(vars, 0.3, 0.2, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seance::logic::prime_engine::compute_incidence(vars, f.on, f.dc));
  }
}
BENCHMARK(BM_PrimeIncidence)->DenseRange(4, 12)->Unit(benchmark::kMicrosecond);

// Full pipeline at the harder canonical shape: QM prime generation on
// 12-15-variable, >90%-DC equations dominates this wall time.
void BM_SynthesizeHarderShape(benchmark::State& state) {
  seance::bench_suite::GeneratorOptions gen = seance::driver::kHarderShape;
  gen.seed = seance::driver::derive_seed(1, static_cast<std::uint64_t>(state.range(0)));
  const auto table = seance::bench_suite::generate(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seance::core::synthesize(table));
  }
}
BENCHMARK(BM_SynthesizeHarderShape)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our flag before google-benchmark sees (and rejects) it.
  bool sweep_limits = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--sweep-limits") {
      sweep_limits = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  print_table();
  if (sweep_limits) print_limit_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
